"""The four benchmark workloads.

A workload makes its ops one pass at a time from a seeded generator
(``next_pass``, untimed), runs one op (``run``, timed), and checks the
outputs against the references in ``reference.py`` (``verify``, untimed).
``verify`` gives each op one outcome:

* ``solved``: the output was checked against an independent reference;
* ``unsolved``: the program answered with a typed refusal the workload
  allows (``ToleranceUnreachable`` in ``tol_corpus``);
* ``unverified``: the output exists but no reference can certify it;
* ``failed``: the output disagrees with its reference, or the op raised.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import reference
from ops import ROOT, SRC

WORK = ROOT / "bench" / "results" / "work"


@dataclass
class Op:
    id: int
    kind: str
    spec: tuple          # bench-side (k, nus, scales)
    args: tuple          # program-side inputs


def _near(value: float, ref: float, allowed: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= allowed


def _check_sum_result(result, spec: tuple, bs, tol: float | None = None) -> tuple[str, bool]:
    """(outcome, bound missed) of an ``evaluate`` result.

    Against a closed form, the value must lie within ``tol`` of it (within
    ``error_bound`` when no tol was asked for), and a value farther from it
    than its own ``error_bound`` is counted as a bound miss: it meets the
    request but reports a false bound.  Otherwise the reference is the
    quadrature oracle, checked with the combined bound of ``besselsum
    compare``; a spec whose oracle tail bound diverges (p <= 1) cannot be
    certified.
    """
    if tol is not None and not result.error_bound <= tol:
        return "failed", False
    ref = reference.closed_form(*spec)
    if ref is not None:
        ref_err = 1e-12 * max(1.0, abs(ref))
        allowed = result.error_bound if tol is None else tol
        ok = _near(result.value, ref, allowed + ref_err)
        return ("solved" if ok else "failed"), not _near(result.value, ref,
                                                          result.error_bound + ref_err)
    if reference.analyse(*spec)["p"] <= 1.0:
        return "unverified", False
    oracle = reference.quadrature_oracle(bs, bs.make_spec(*spec))
    if oracle is None:
        return "unverified", False
    value, q_err = oracle
    ok = _near(result.value, value, result.error_bound + q_err + 1e-9)
    return ("solved" if ok else "failed"), not ok


def _check_rows(rows, specs, t_max: float) -> list[bool]:
    """Sweep rows against a direct 10-term sum and adaptive quadrature."""
    ok = [False] * len(rows)
    families: dict[tuple, list[int]] = {}
    for i, (k, nus, _scales) in enumerate(specs):
        families.setdefault((k, nus), []).append(i)
    for (k, nus), idx in families.items():
        quad = reference.finite_integrals(k, nus, [specs[i][2] for i in idx], t_max)
        for i, q_ref in zip(idx, quad):
            row, spec = rows[i], specs[i]
            if row is None:
                continue
            s_ref, s_abs = reference.direct_sum(*spec, 10)
            info = reference.analyse(*spec, rescale=False)
            ok[i] = (
                _near(row.sum_value, s_ref, 1e-12 * s_abs + 1e-300)
                and _near(row.quad_value, q_ref, 1e-9 * (1.0 + abs(q_ref)))
                and row.abs_diff == abs(row.sum_value - row.quad_value)
                and row.valid == info["valid"]
                and row.klass == info["klass"]
            )
    return ok


class Workload:
    name = ""

    def __init__(self, bs, seed: int):
        self.bs = bs
        self.rng = np.random.default_rng(seed)
        self.passes = 0
        #: outputs farther from their reference than their own error bound
        self.bound_misses = 0
        self._next_id = 0

    def _op(self, kind, spec, args) -> Op:
        self._next_id += 1
        return Op(self._next_id - 1, kind, spec, args)

    def next_pass(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def verify(self, records) -> list[str]:
        raise NotImplementedError

    def mix(self, records) -> dict:
        raise NotImplementedError


class PanelSweep(Workload):
    """The paper's three panels x three fixed scales x 40 jittered b-points,
    one ``cli.run_sweep`` row per op at terms=10, t_max=10."""

    name = "panel_sweep"
    T_MAX = 10.0

    def next_pass(self):
        ops = []
        for panel, afix, b_values in corpus.sweep_pass(self.rng):
            k, nus, scales = corpus.panel_template(panel, afix)
            template = self.bs.make_spec(k, nus, scales)
            for b in b_values:
                ops.append(self._op(panel, (k, nus, scales[:-1] + (b,)),
                                    (template, len(scales) - 1, b)))
        self.passes += 1
        return ops

    def run(self, op, tracer=None):
        template, vary, b = op.args
        return self.bs.cli.run_sweep(template, vary, [b], terms=10, t_max=self.T_MAX).rows[0]

    def verify(self, records):
        rows = [out if not isinstance(out, Exception) else None for _op, out, _dt in records]
        ok = _check_rows(rows, [op.spec for op, _out, _dt in records], self.T_MAX)
        return ["solved" if good else "failed" for good in ok]

    def mix(self, records):
        kinds: dict[str, int] = {}
        for op, _out, _dt in records:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {"passes": self.passes, "rows": len(records), "rows_by_panel": kinds}


class DeepSum(Workload):
    """``evaluate(spec, terms=10**6)`` on the three panel specs and two
    closed-form specs, freshly drawn each pass."""

    name = "deep_sum"

    def next_pass(self):
        self.passes += 1
        return [self._op(kind, spec, (self.bs.make_spec(*spec),))
                for kind, spec in corpus.deep_specs(self.rng)]

    def run(self, op, tracer=None):
        return self.bs.evaluate(op.args[0], terms=corpus.DEEP_TERMS)

    def verify(self, records):
        out_list = []
        for op, out, _dt in records:
            if isinstance(out, Exception):
                out_list.append("failed")
                continue
            outcome, missed = _check_sum_result(out, op.spec, self.bs)
            self.bound_misses += missed
            out_list.append(outcome)
        return out_list

    def mix(self, records):
        return {"passes": self.passes, "terms": corpus.DEEP_TERMS,
                **corpus.spec_mix([op.spec for op, _out, _dt in records])}


class TolCorpus(Workload):
    """``evaluate(spec, tol=...)`` at ``m_max=10**5`` over a seeded corpus."""

    name = "tol_corpus"

    def __init__(self, bs, seed):
        super().__init__(bs, seed)
        self.shapes = corpus.tol_shapes()

    def next_pass(self):
        ops = [self._op(stratum, spec, (self.bs.make_spec(*spec), tol))
               for stratum, spec, tol in corpus.tol_pass(self.rng, self.passes, self.shapes)]
        self.passes += 1
        return ops

    def run(self, op, tracer=None):
        spec, tol = op.args
        return self.bs.evaluate(spec, tol=tol, m_max=corpus.TOL_M_MAX)

    def verify(self, records):
        unreachable = getattr(self.bs, "ToleranceUnreachable", ())
        out_list = []
        for op, out, _dt in records:
            if isinstance(out, unreachable):
                out_list.append("unsolved")
            elif isinstance(out, Exception):
                out_list.append("failed")
            else:
                outcome, missed = _check_sum_result(out, op.spec, self.bs, tol=op.args[1])
                self.bound_misses += missed
                out_list.append(outcome)
        return out_list

    def mix(self, records):
        return {"passes": self.passes, "m_max": corpus.TOL_M_MAX,
                "strata": {s: sum(op.kind == s for op, _o, _d in records)
                           for s in corpus.TOL_PASS},
                **corpus.spec_mix([op.spec for op, _out, _dt in records],
                                  [op.args[1] for op, _out, _dt in records])}


def _flags(spec: tuple) -> list[str]:
    k, nus, scales = spec
    return [f"--nu={','.join(repr(float(v)) for v in nus)}",
            f"--a={','.join(repr(float(a)) for a in scales)}", f"--k={k}"]


def cli_argvs(rng: np.random.Generator, cycle: int) -> list[tuple[str, tuple, list[str]]]:
    """(command, spec, argv) for one ``cli_cold`` cycle."""
    out = []
    for command, spec in corpus.cli_cycle(rng):
        if command == "validate":
            argv = ["validate", *_flags(spec), "--format", "json"]
        elif command == "compute":
            argv = ["compute", *_flags(spec), "--tol", "1e-6", "--format", "json"]
        elif command == "compare":
            argv = ["compare", *_flags(spec)]
        else:
            spec, vary, b_hi = spec
            path = WORK / f"sweep-{cycle}.csv"
            argv = ["sweep", *_flags(spec), "--vary", str(vary),
                    "--range", f"{b_hi / 5!r}:{b_hi!r}:5", "--terms", "10",
                    "--t-max", "10", "--out", str(path)]
        out.append((command, spec, argv))
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliCold(Workload):
    """Fresh ``python -m besselsum`` processes, one at a time, cycling
    validate, compute --tol, compare and a 5-point sweep."""

    name = "cli_cold"

    def __init__(self, bs, seed):
        super().__init__(bs, seed)
        WORK.mkdir(parents=True, exist_ok=True)
        self.env = child_env()

    def next_pass(self):
        ops = [self._op(command, spec, tuple(argv))
               for command, spec, argv in cli_argvs(self.rng, self.passes)]
        self.passes += 1
        return ops

    def run(self, op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "besselsum", *op.args]
            return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
        spans_path = WORK / f"spans-{op.id}.json"
        cmd = [sys.executable, str(ROOT / "bench" / "probe.py"), "cli", str(spans_path), *op.args]
        parent = tracer.current()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        tracer.adopt(json.loads(spans_path.read_text()), parent)
        spans_path.unlink()
        return proc

    def verify(self, records):
        out = []
        for op, proc, _dt in records:
            try:
                out.append("failed" if isinstance(proc, Exception) else self._verify_one(op, proc))
            except (ValueError, KeyError, IndexError, OSError):  # output not as documented
                out.append("failed")
        return out

    def _verify_one(self, op, proc) -> str:
        if op.kind == "validate":
            info = reference.analyse(*op.spec, rescale=False)
            doc = json.loads(proc.stdout)
            ok = (proc.returncode == (0 if info["valid"] else 2)
                  and doc["valid"] == info["valid"] and doc["class"] == info["klass"])
            return "solved" if ok else "failed"
        if proc.returncode != 0:
            return "failed"
        if op.kind == "compute":
            doc = json.loads(proc.stdout)
            ref = reference.closed_form(*op.spec)
            ref_err = 1e-12 * max(1.0, abs(ref))
            self.bound_misses += not _near(doc["value"], ref, doc["error_bound"] + ref_err)
            ok = doc["error_bound"] <= 1e-6 and _near(doc["value"], ref, 1e-6 + ref_err)
            return "solved" if ok else "failed"
        if op.kind == "compare":
            fields = _compare_fields(proc.stdout)
            s_ref, s_abs = reference.direct_sum(*op.spec, 10)
            q_ref = reference.finite_integrals(op.spec[0], op.spec[1], [op.spec[2]],
                                               fields["t_max"])[0]
            ok = ("PASS" in proc.stdout
                  and _near(fields["sum_value"], s_ref, 1e-12 * s_abs + 1e-300)
                  and _near(fields["quad_value"], q_ref, 1e-9 * (1.0 + abs(q_ref))))
            return "solved" if ok else "failed"
        path = Path(op.args[op.args.index("--out") + 1])
        rows, specs = _read_sweep(path, op.spec)
        path.unlink()
        ok = len(rows) == 5 and all(_check_rows(rows, specs, 10.0))
        return "solved" if ok else "failed"

    def mix(self, records):
        kinds: dict[str, int] = {}
        for op, _out, _dt in records:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {"passes": self.passes, "processes": len(records), "commands": kinds}


def _compare_fields(stdout: str) -> dict[str, float]:
    """sum_value, quad_value and t_max from ``besselsum compare`` output."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("sum_value = "):
            out["sum_value"] = float(line.split()[2])
        elif line.startswith("quad_value = "):
            out["quad_value"] = float(line.split()[2])
            out["t_max"] = float(line.split("t_max=")[1].split(",")[0])
    return out


@dataclass
class _Row:
    b: float
    sum_value: float
    quad_value: float
    abs_diff: float
    valid: bool
    klass: str


def _read_sweep(path: Path, template: tuple) -> tuple[list[_Row], list[tuple]]:
    """Rows of a sweep CSV and the spec each row stands for."""
    lines = path.read_text().splitlines()
    k, nus, scales = template
    rows, specs = [], []
    for line in lines[2:]:
        b, s, q, d, valid, klass = line.split(",")
        rows.append(_Row(float(b), float(s), float(q), float(d), valid == "true", klass))
        specs.append((k, nus, scales[:-1] + (float(b),)))
    return rows, specs


WORKLOADS = {cls.name: cls for cls in (PanelSweep, DeepSum, TolCorpus, CliCold)}
