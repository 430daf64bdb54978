"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain tuples;
the same seed gives the same inputs.  A spec is ``(k, nus, scales)``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference

PI = math.pi
TWO_PI = 2.0 * PI

#: the paper's demonstration panels: orders, k, and how many scales are fixed
PANELS = {
    "two_factor": ((0.5, 1.5), 0, 1),
    "three_factor": ((0.0, 1.0, 2.0), 2, 2),
    "four_factor": ((-1.5, -1.0, 0.5, 0.0), -1, 3),
}
FIXED_SCALES = (PI / 16, 3 * PI / 16, 5 * PI / 16)
SWEEP_POINTS = 40

#: order classes of the paper's examples
PAPER_ORDERS = (0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 1.5, -1.5, 2.5)
TOLS = (1e-6, 1e-8)
TOL_M_MAX = 10**5
DEEP_TERMS = 10**6

#: tol_corpus specs per pass by stratum, and the factor counts each stratum
#: takes in turn: 15 % rescaled past 2*pi, 10 % wide, 20 % conditional.
#: Conditional specs run to the full term budget; five of eight have N = 4,
#: so the slowest tenth of ops is one homogeneous group and op_ms_p90 falls
#: inside it rather than on the edge between two groups.
TOL_PASS = {"absolute": 22, "conditional": 8, "rescaled": 6, "wide": 4}
N_CYCLE = {"absolute": (1, 2, 3, 4), "conditional": (4, 1, 4, 2, 4, 3, 4, 4),
           "rescaled": (1, 2, 3, 4), "wide": (10, 11, 12, 13, 14)}
#: tol_corpus spec shapes (orders, k, scale ratios, tol) come from this fixed
#: seed, TOL_SHAPE_PASSES passes' worth; the run seed jitters every scale by
#: up to TOL_JITTER and orders each pass, so runs on different seeds are
#: comparable and no spec repeats exactly
TOL_SHAPES_SEED = 2104_10169
TOL_SHAPE_PASSES = 2
TOL_JITTER = 0.05


def panel_template(name: str, afix: float, b: float = 1.0):
    nus, k, n_fixed = PANELS[name]
    return k, nus, (afix,) * n_fixed + (b,)


def sweep_pass(rng: np.random.Generator) -> list[tuple]:
    """One pass of ``panel_sweep``: (panel, afix, b-grid) for every panel and
    fixed scale, each grid point jittered inside its cell of (0, b*)."""
    out = []
    for name, (_nus, _k, n_fixed) in PANELS.items():
        for afix in FIXED_SCALES:
            b_star = TWO_PI - n_fixed * afix
            cells = np.arange(1, SWEEP_POINTS + 1) + rng.uniform(-0.45, 0.45, SWEEP_POINTS)
            out.append((name, afix, tuple(float(b) for b in b_star * cells / (SWEEP_POINTS + 1))))
    return out


def deep_specs(rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """The five ``deep_sum`` specs: the three panels with a seeded fixed scale
    and varied scale, one nu = 1/2 factor, and a Weber-Schafheitlin pair."""
    out = []
    for name, (_nus, _k, n_fixed) in PANELS.items():
        afix = FIXED_SCALES[rng.integers(len(FIXED_SCALES))]
        b = (TWO_PI - n_fixed * afix) * rng.uniform(0.1, 0.9)
        out.append((name, panel_template(name, afix, float(b))))
    out.append(("half_order", (0, (0.5,), (float(rng.uniform(0.5, 3.0)),))))
    mu = float(rng.choice((0.5, 1.5, 2.5)))
    out.append(("weber_schafheitlin",
                (int(mu - 0.5), (mu, mu), (1.0, float(rng.uniform(0.2, 0.9))))))
    return out


def _draw_order(rng: np.random.Generator) -> float:
    if rng.random() < 0.75:
        return float(rng.choice(PAPER_ORDERS))
    return round(float(rng.uniform(-0.9, 2.9)), 3)


def _draw_spec(rng: np.random.Generator, n: int, budget: tuple[float, float],
               klass: str | None = None) -> tuple:
    """Rejection-sample a valid spec with n factors, sum of scales in budget
    and, when given, the convergence class klass."""
    while True:
        nus = tuple(_draw_order(rng) for _ in range(n))
        k = int(rng.integers(-1, 3))
        raw = rng.uniform(0.2, 1.0, n)
        scales = tuple(float(a) for a in (raw / raw.sum() * rng.uniform(*budget)).round(6))
        info = reference.analyse(k, nus, scales)
        if info["valid"] and klass in (None, info["klass"]):
            return k, nus, scales


def _strata_batch(rng: np.random.Generator, pass_index: int) -> list[tuple]:
    """One pass worth of (stratum, spec, tol), strata in TOL_PASS sizes with
    factor counts from N_CYCLE in turn and tolerances alternating."""
    ops = []
    for stratum, count in TOL_PASS.items():
        cycle = N_CYCLE[stratum]
        for i in range(count):
            n = cycle[(pass_index * count + i) % len(cycle)]
            if stratum == "rescaled":
                spec = _draw_spec(rng, n, (1.05 * TWO_PI, 2.0 * TWO_PI))
            elif stratum == "wide":
                spec = _draw_spec(rng, n, (0.5, 0.98 * TWO_PI))
            else:
                spec = _draw_spec(rng, n, (0.3, 0.98 * TWO_PI), klass=stratum)
            ops.append((stratum, spec, TOLS[(pass_index + i) % 2]))
    return ops


def tol_shapes() -> list[list[tuple]]:
    """The fixed tol_corpus shapes, one list per pass of the cycle."""
    rng = np.random.default_rng(TOL_SHAPES_SEED)
    return [_strata_batch(rng, i) for i in range(TOL_SHAPE_PASSES)]


def _jitter(rng: np.random.Generator, spec: tuple) -> tuple:
    """The spec with every scale scaled by 1 +- TOL_JITTER, redrawn until
    validity, convergence class and the rescale path are unchanged."""
    k, nus, scales = spec
    info = reference.analyse(*spec)
    while True:
        factors = rng.uniform(1.0 - TOL_JITTER, 1.0 + TOL_JITTER, len(scales))
        out = (k, nus, tuple(round(float(a * f), 6) for a, f in zip(scales, factors)))
        new = reference.analyse(*out)
        if (new["valid"], new["klass"], new["rescaled"]) == (True, info["klass"], info["rescaled"]):
            return out


def tol_pass(rng: np.random.Generator, pass_index: int, shapes) -> list[tuple]:
    """One pass of ``tol_corpus``: the next batch of ``shapes`` with jittered
    scales, shuffled; (stratum, spec, tol) per op."""
    batch = [(stratum, _jitter(rng, spec), tol)
             for stratum, spec, tol in shapes[pass_index % len(shapes)]]
    return [batch[i] for i in rng.permutation(len(batch))]


def order_class(nu: float) -> str:
    if abs(nu - round(nu)) <= 1e-12:
        return "integer"
    if abs(nu - math.floor(nu) - 0.5) <= 1e-12:
        return "half_integer"
    return "generic"


def spec_mix(specs, tols=None) -> dict:
    """Realized mix of a list of specs: convergence class, N, rescaled and
    wide shares, order classes and (when given) the tolerance split."""
    n = len(specs)
    info = [reference.analyse(*s) for s in specs]
    mix = {
        "specs": n,
        "class": dict(Counter(i["klass"] for i in info)),
        "n_factors": dict(sorted(Counter(len(s[1]) for s in specs).items())),
        "rescaled_share": sum(i["rescaled"] for i in info) / n,
        "wide_share": sum(len(s[1]) >= 10 for s in specs) / n,
        "order_class": dict(Counter(order_class(v) for s in specs for v in s[1])),
    }
    if tols is not None:
        mix["tol_split"] = {f"{t:g}": c for t, c in sorted(Counter(tols).items())}
    return mix


def cli_cycle(rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """One cycle of ``cli_cold``: validate, compute --tol, compare, sweep."""
    name = list(PANELS)[rng.integers(len(PANELS))]
    afix = FIXED_SCALES[rng.integers(len(FIXED_SCALES))]
    _nus, _k, n_fixed = PANELS[name]
    b_star = TWO_PI - n_fixed * afix
    validate = panel_template(name, afix, float(b_star * rng.uniform(0.05, 1.3)))
    compute = (0, (0.5,), (float(rng.uniform(0.5, 3.0)),))
    compare = panel_template("two_factor", FIXED_SCALES[rng.integers(3)],
                             float((TWO_PI - PI / 16) * rng.uniform(0.1, 0.9)))
    sweep_afix = FIXED_SCALES[rng.integers(3)]
    sweep = panel_template(name, sweep_afix)
    b_hi = float((TWO_PI - n_fixed * sweep_afix) * rng.uniform(0.5, 0.95))
    return [("validate", validate), ("compute", compute), ("compare", compare),
            ("sweep", (sweep, n_fixed, b_hi))]
