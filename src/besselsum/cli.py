"""Command-line surface: compute | validate | sweep | compare.

Numeric flags accept pi-expressions ("3*pi/16") since the interesting scale
values are pi-rational.  Output is deterministic: CSV floats are written
with 17 significant digits in scientific notation (exact float64
round-trip), JSON uses shortest-round-trip reprs, and no timestamps or
environment state ever reach an output file.

Exit codes: 0 success, 1 flag/parse errors, 2 invalid spec or bound
violation, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import identity, quadrature, summation
from .errors import (
    ConfigError,
    DampingError,
    DomainError,
    InvalidSpec,
    SizeError,
    ToleranceUnreachable,
)
from .identity import TWO_PI, BesselProductSpec

_FLOAT_FMT = "{:.16e}"


class CliError(Exception):
    """Flag or input parsing failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map parse errors to 1
        raise CliError(message)


def _fmt(x: float) -> str:
    return _FLOAT_FMT.format(float(x))


def parse_number(text: str) -> float:
    """Parse a numeric literal or a pi-expression with + - * / and unary minus."""

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = ev(node.operand)
            return v if isinstance(node.op, ast.UAdd) else -v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            lo, hi = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return lo + hi
            if isinstance(node.op, ast.Sub):
                return lo - hi
            if isinstance(node.op, ast.Mult):
                return lo * hi
            return lo / hi
        raise CliError(f"unsupported expression element in {text!r}")

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise CliError(f"cannot parse number {text!r}: {exc.msg}") from exc
    try:
        return ev(tree.body)
    except ZeroDivisionError as exc:
        raise CliError(f"division by zero in {text!r}") from exc


def _parse_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(parse_number(part) for part in text.split(","))
    except CliError as exc:
        raise CliError(f"{flag}: {exc}") from exc


def _build_spec(args) -> BesselProductSpec:
    if args.spec is not None:
        if args.nu is not None or args.a is not None:
            raise CliError("--spec cannot be combined with --nu/--a")
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                return BesselProductSpec.from_json(fh.read())
        except OSError as exc:
            raise CliError(f"--spec: cannot read {args.spec}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, InvalidSpec) as exc:
            raise CliError(f"--spec: malformed spec file {args.spec}: {exc}") from exc
    if args.nu is None or args.a is None:
        raise CliError("either --spec or both --nu and --a are required")
    try:
        return identity.make_spec(args.k, _parse_list(args.nu, "--nu"), _parse_list(args.a, "--a"))
    except InvalidSpec as exc:
        raise CliError(f"bad spec from flags: {exc}") from exc


def _add_spec_flags(p: _Parser) -> None:
    p.add_argument("--spec", help="path to a spec JSON file {'k':int,'factors':[{'nu','a'},...]}")
    p.add_argument("--nu", help="comma-separated orders (pi-expressions allowed)")
    p.add_argument("--a", help="comma-separated positive scales (pi-expressions allowed)")
    p.add_argument("--k", type=int, default=0, help="integer exponent parameter (default 0)")


def _render_validity(report, fmt: str, out, spec=None) -> None:
    if fmt == "json":
        doc = report.to_dict()
        if spec is not None:
            doc = {"spec": spec.to_dict(), **doc}
        print(json.dumps(doc), file=out)
        return
    print(f"valid = {str(report.valid).lower()}", file=out)
    print(f"class = {report.convergence_class.value}", file=out)
    print(f"needs_rescale = {str(report.needs_rescale).lower()}", file=out)
    if report.beat_witness:
        print(f"beat_witness = {list(report.beat_witness)}", file=out)
    if report.negative_integer_set:
        print(f"negative_integer_set = {list(report.negative_integer_set)}", file=out)
    for rule in report.triggered_rules:
        marker = "VIOLATED" if rule.violated else "note"
        print(f"[{rule.ident}] ({marker}) {rule.text}", file=out)


def _print_invalid(exc: InvalidSpec, note: str = "") -> int:
    """Print an InvalidSpec on stderr, its validity report (then `note`) when
    it carries one, else its message; return exit code 2."""
    if exc.report is None:
        print(f"invalid spec: {exc}", file=sys.stderr)
    else:
        _render_validity(exc.report, "text", sys.stderr)
        if note:
            print(note, file=sys.stderr)
    return 2


def cmd_compute(args) -> int:
    spec = _build_spec(args)
    terms = args.terms if args.tol is None else None
    try:
        result = summation.evaluate(spec, terms=terms, tol=args.tol, accelerate=not args.no_accel)
    except InvalidSpec as exc:
        return _print_invalid(exc)
    except ToleranceUnreachable as exc:
        print(f"tolerance unreachable: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(result.to_dict()))
    else:
        print(f"value = {_fmt(result.value)}")
        print(f"terms_used = {result.terms_used}")
        print(f"error_bound = {_fmt(result.error_bound)}")
        print(f"class = {result.convergence_class.value}")
        print(f"accelerated = {str(result.accelerated).lower()}")
        print(f"rescaled = {str(result.rescaled).lower()} (A = {_fmt(result.rescale_A)})")
    return 0


def cmd_validate(args) -> int:
    spec = _build_spec(args)
    report = identity.check_validity(spec)
    _render_validity(report, args.format, sys.stdout, spec=spec)
    return 0 if report.valid else 2


@dataclass(frozen=True, slots=True)  # a sweep keeps one per b
class SweepRow:
    b: float
    sum_value: float
    quad_value: float
    abs_diff: float
    valid: bool
    klass: str


@dataclass(frozen=True)
class SweepTable:
    template: BesselProductSpec
    vary: int
    b_star: float
    terms: int
    t_max: float
    rows: tuple[SweepRow, ...]

    def meta_dict(self) -> dict:
        return {
            "spec": self.template.to_dict(),
            "vary": self.vary,
            "b_star": self.b_star,
            "terms": self.terms,
            "t_max": self.t_max,
        }


def _sweep_values(spec: BesselProductSpec, report, terms: int, t_max) -> tuple[float, float]:
    """(sum, quadrature value) of a sweep row, nan where either does not exist:
    ``sum_power_product``'s and ``integrate``'s values, from one point array of
    the summand points m = 1..terms, then the 16-node points of the panels."""
    edges = quadrature._equal_panels(t_max, spec.scales)
    try:
        m0 = 0.5 * identity.zero_limit(spec)
    except InvalidSpec:  # R1: no sum, and no integral either
        return math.nan, math.nan
    integrable, _ = report.integrand_conditions()
    ts, half = quadrature._panel_nodes(edges, quadrature._NODES) if integrable else ([], None)
    points = np.concatenate([np.arange(1, terms + 1, dtype=float), ts])
    vals = identity.integrand_array(spec, points)
    q = quadrature._panel_sum(vals[terms:], half, quadrature._NODES) if integrable else math.nan
    return summation._blocked_sum(m0, vals[:terms]), q


def run_sweep(
    template: BesselProductSpec,
    vary: int,
    b_values,
    terms: int = 10,
    t_max: float = 10.0,
) -> SweepTable:
    """One row per b: raw truncated sum, quadrature value (nan where the
    integral does not exist), their gap, validity, from one analysis of the
    row's spec.  A bad vary, terms or t_max raises."""
    if not 0 <= vary < template.n_factors:
        raise ConfigError(f"vary index {vary} out of range for N={template.n_factors}")
    try:
        count = summation._term_count(terms)
    except InvalidSpec as exc:
        raise ConfigError(str(exc)) from exc
    others = math.fsum(a for i, a in enumerate(template.scales) if i != vary)
    b_star = TWO_PI - others
    rows = []
    for b in sorted(float(x) for x in b_values):
        factors = list(template.factors)
        factors[vary] = identity.Factor(factors[vary].nu, b)
        spec = BesselProductSpec(k=template.k, factors=tuple(factors))
        report = identity.check_validity(spec)
        s, q = _sweep_values(spec, report, count, t_max)
        rows.append(
            SweepRow(
                b=b,
                sum_value=s,
                quad_value=q,
                abs_diff=abs(s - q),
                valid=report.valid,
                klass=report.convergence_class.value,
            )
        )
    return SweepTable(
        template=template,
        vary=vary,
        b_star=b_star,
        terms=terms,
        t_max=t_max,
        rows=tuple(rows),
    )


CSV_COLUMNS = ("b", "sum_value", "quad_value", "abs_diff", "valid", "class")


def _row_values(r: SweepRow) -> tuple:
    """A row's fields in CSV_COLUMNS order."""
    return r.b, r.sum_value, r.quad_value, r.abs_diff, r.valid, r.klass


def write_sweep_csv(table: SweepTable, fh) -> None:
    fh.write("# meta: " + json.dumps(table.meta_dict()) + "\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for r in table.rows:
        fields = (_fmt(v) if isinstance(v, float) else str(v).lower() for v in _row_values(r))
        fh.write(",".join(fields) + "\n")


def sweep_to_json(table: SweepTable) -> str:
    rows = [dict(zip(CSV_COLUMNS, _row_values(r))) for r in table.rows]
    return json.dumps({"meta": table.meta_dict(), "rows": rows})


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--range must be start:stop:count, got {text!r}")
    start, stop = parse_number(parts[0]), parse_number(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise CliError(f"--range count must be an integer, got {parts[2]!r}") from exc
    if count < 2:
        raise CliError(f"--range count must be >= 2, got {count}")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    if args.vary is None or args.range is None or args.out is None:
        raise CliError("sweep requires --vary, --range and --out")
    b_values = _parse_range(args.range)
    try:
        table = run_sweep(spec, args.vary, b_values, terms=args.terms, t_max=args.t_max)
    except (ConfigError, InvalidSpec) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            if args.format == "json":
                fh.write(sweep_to_json(table) + "\n")
            else:
                write_sweep_csv(table, fh)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_compare(args) -> int:
    spec = _build_spec(args)
    try:
        result = summation.evaluate(spec, terms=args.terms, accelerate=not args.no_accel)
    except InvalidSpec as exc:
        return _print_invalid(exc, "invalid spec even after rescaling; nothing to compare")
    t_max = args.t_max if args.t_max is not None else quadrature.t_max_for_tail(spec, 1e-6)
    try:
        quad = quadrature.integrate(spec, t_max)
    except (InvalidSpec, ConfigError, SizeError) as exc:
        print(f"quadrature oracle failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"sum_value = {_fmt(result.value)} (terms={result.terms_used}, "
        f"class={result.convergence_class.value}, "
        f"accelerated={str(result.accelerated).lower()}, "
        f"rescaled={str(result.rescaled).lower()})"
    )
    print(
        f"quad_value = {_fmt(quad.value)} (t_max={_fmt(quad.t_max)}, "
        f"panels={quad.panels}, error_estimate={_fmt(quad.error_estimate)})"
    )
    try:
        print(f"correction_term = {_fmt(quadrature.correction_term(spec))}")
    except (DampingError, DomainError, InvalidSpec) as exc:
        print(f"correction_term = n/a ({exc})")
    try:
        leak = quadrature.band_limit_check(spec)
        print(f"band_limit_leakage = {_fmt(leak)}")
    except InvalidSpec as exc:
        print(f"band_limit_leakage = n/a ({exc})")
    if result.rescaled:
        print("note: direct summation invalid at these scales; compared via the rescale path")
    diff = abs(result.value - quad.value)
    bound = result.error_bound + quad.error_estimate + 1e-9
    ok = diff <= bound
    print(f"|sum - quad| = {_fmt(diff)} <= combined bound {_fmt(bound)} : "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="besselsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate the sum for a spec")
    _add_spec_flags(p)
    group = p.add_mutually_exclusive_group()
    # a string default goes through type=int, so an explicit --terms 10 still
    # counts as given and excludes --tol
    group.add_argument("--terms", type=int, default="10", help="truncation M (default 10)")
    group.add_argument("--tol", type=float, default=None, help="target error bound")
    p.add_argument("--no-accel", action="store_true", help="disable series acceleration")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("validate", help="print the validity report")
    _add_spec_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="vary one scale over a range, write CSV/JSON")
    _add_spec_flags(p)
    p.add_argument("--vary", type=int, default=None, help="index of the varied factor")
    p.add_argument("--range", default=None, help="start:stop:count (pi-expressions allowed)")
    p.add_argument("--terms", type=int, default=10, help="truncation M (default 10)")
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0,
                   help="quadrature truncation (default 10)")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="sum vs quadrature oracle with bounds")
    _add_spec_flags(p)
    p.add_argument("--terms", type=int, default=10, help="truncation M (default 10)")
    p.add_argument("--t-max", dest="t_max", type=float, default=None,
                   help="quadrature truncation (default: tail-bound driven)")
    p.add_argument("--no-accel", action="store_true", help="disable series acceleration")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SizeError, ToleranceUnreachable, InvalidSpec, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit codes are total: never leak a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
