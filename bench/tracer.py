"""Span tracer that wraps the program's public functions from outside.

The tracer replaces each target function by a wrapper in every loaded
``besselsum`` module namespace that refers to it, so calls between modules
and within one module are both recorded.  Nothing under ``src/`` changes.
A target that a later version of the program no longer has is recorded as
absent and skipped.

A span is ``[name, start_ns, end_ns, parent, op, count, error]``: ``parent``
is the index of the enclosing span (-1 for a root), ``op`` the id of the
benchmark op it belongs to, ``count`` the work it did (points, terms,
panels) and ``error`` the name of the exception it raised, if any.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return int(getattr(x, "size", 1))


def _evaluate(args, kwargs, result):
    return {"terms": result.terms_used, "accelerated": int(result.accelerated)}


def _panels(args, kwargs, result):
    return result.panels


#: (module, function, counter) for every public function on a workload's path
TARGETS = (
    ("specfun", "jv_array", _points),
    ("specfun", "ive_array", _points),
    ("identity", "make_spec", None),
    ("identity", "check_validity", None),
    ("identity", "integrand_conditions_ok", None),
    ("identity", "rescale", None),
    ("identity", "beat_exists", None),
    ("identity", "beat_frequencies", None),
    ("identity", "aliased_beat_frequencies", None),
    ("identity", "zero_limit", None),
    ("identity", "summand", None),
    ("identity", "summand_terms", None),
    ("identity", "integrand_array", None),
    ("identity", "power_product_array", None),
    ("summation", "evaluate", _evaluate),
    ("summation", "required_terms", None),
    ("summation", "truncation_bound", None),
    ("summation", "envelope_constant", None),
    ("quadrature", "integrate", _panels),
    ("quadrature", "tail_bound", None),
    ("quadrature", "t_max_for_tail", None),
    ("quadrature", "correction_term", None),
    ("quadrature", "correction_term_power_product", None),
    ("quadrature", "band_limit_check", None),
    ("cli", "main", None),
    ("cli", "run_sweep", None),
    ("cli", "write_sweep_csv", None),
    ("cli", "cmd_compute", None),
    ("cli", "cmd_validate", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_compare", None),
)


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def install(self, package: str = "besselsum") -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, count in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(fn, f"{mod_name}.{fn_name}", count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name: str, count):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = now()
                rec[6] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[2] = now()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ op spans
    def begin(self, name: str, op: int) -> None:
        """Open a span for benchmark op ``op`` (or a stage of it)."""
        self._op = op
        rec = [name, 0, 0, self.current(), op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()

    def current(self) -> int:
        """Index of the innermost open span, -1 when none is open."""
        return self._stack[-1] if self._stack else -1

    def end(self, error: str | None = None) -> None:
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter_ns()
        rec[6] = error

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        ``perf_counter_ns`` reads the system-wide monotonic clock on Linux,
        so the child's times need no shift.
        """
        base = len(self.spans)
        for name, start, end, par, _op, count, error in child_spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self._op, count, error])

    # ------------------------------------------------------------ results
    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, total_s, count (or the keys of a
        dict-valued count, summed), and errors by type."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0, "errors": {}})
        for rec, self_ns in zip(self.spans, self.self_times()):
            s = out[rec[0]]
            s["calls"] += 1
            s["self_s"] += self_ns * 1e-9
            s["total_s"] += (rec[2] - rec[1]) * 1e-9
            if isinstance(rec[5], dict):
                for key, val in rec[5].items():
                    s[key] = s.get(key, 0) + val
            else:
                s["count"] += rec[5]
            if rec[6]:
                s["errors"][rec[6]] = s["errors"].get(rec[6], 0) + 1
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "count",
                                 "error"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
