"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

The conditional-sweep demo-defaults check of criterion 3 is implemented
exactly as stated and is known to fail; its assertion message carries the
measured gap and the reason the stated 5e-2 gate cannot be met at 10 terms.
"""

import math
import time

import numpy as np
import pytest

from besselsum import cli, identity, quadrature, specfun, summation
from besselsum.identity import ConvergenceClass, make_spec

PI = math.pi


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    return ok


# --------------------------------------------------------------- criterion 1

def test_criterion_1_single_factor_closed_form():
    """nu=1/2, k=0: tol-driven sum matches sqrt(2/(pi a)) * pi/2 to 1e-6."""
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 3.0):
        spec = make_spec(0, [0.5], [a])
        r = summation.evaluate(spec, tol=1e-6, m_max=10**6, accelerate=True)
        target = math.sqrt(2.0 / (PI * a)) * PI / 2.0
        worst = max(worst, abs(r.value - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 5.0
    assert _report(
        "criterion 1: single-factor closed form",
        ok,
        f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.2f}s (limit 5s)",
    )


# --------------------------------------------------------------- criterion 2

def test_criterion_2_weber_schafheitlin_family():
    """nu=(mu,mu), k=mu-1/2, a=1: sum equals (b)^mu/(2 mu) within bounds."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for mu in (0.5, 1.5, 2.5):
        k = int(mu - 0.5)
        for b in (0.3, 0.5, 0.8):
            spec = make_spec(k, [mu, mu], [1.0, b])
            closed = b**mu / (2.0 * mu)
            r = summation.evaluate(spec, terms=10**4)
            tol = max(1e-4, summation.truncation_bound(spec, 10**4))
            q = quadrature.integrate(spec, quadrature.t_max_for_tail(spec, 1e-6, cap=6e3))
            sum_ok = abs(r.value - closed) <= tol
            quad_ok = abs(q.value - closed) <= q.error_estimate + 1e-9
            if not (sum_ok and quad_ok):
                details.append(f"mu={mu} b={b}: sum gap {abs(r.value - closed):.2e} "
                               f"tol {tol:.2e}, quad gap {abs(q.value - closed):.2e}")
            ok = ok and sum_ok and quad_ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    assert _report(
        "criterion 2: Weber-Schafheitlin family",
        ok,
        "; ".join(details) or f"all 9 cases within bounds, {elapsed:.1f}s (limit 30s)",
    )


# --------------------------------------------------------------- criterion 3

PANELS = {
    "two_factor": dict(nus=(0.5, 1.5), k=0, n_fixed=1),
    "three_factor": dict(nus=(0.0, 1.0, 2.0), k=2, n_fixed=2),
    "four_factor": dict(nus=(-1.5, -1.0, 0.5, 0.0), k=-1, n_fixed=3),
}
FIXED_SCALES = (PI / 16, 3 * PI / 16, 5 * PI / 16)


def _panel_template(name: str, afix: float):
    p = PANELS[name]
    scales = [afix] * p["n_fixed"] + [1.0]  # varied factor placeholder
    return make_spec(p["k"], list(p["nus"]), scales), p["n_fixed"]


def _panel_b_values(name: str, afix: float) -> list[float]:
    p = PANELS[name]
    b_star = 2 * PI - p["n_fixed"] * afix
    return [b_star * i / 41.0 for i in range(1, 41)]


def _panel_defaults_check(name: str) -> tuple[bool, str]:
    worst_ratio = 0.0
    detail = ""
    for afix in FIXED_SCALES:
        template, n_fixed = _panel_template(name, afix)
        table = cli.run_sweep(template, n_fixed, _panel_b_values(name, afix),
                              terms=10, t_max=10.0)
        assert all(r.valid for r in table.rows)
        max_diff = max(r.abs_diff for r in table.rows)
        tol = 5e-2 * max(1.0, max(abs(r.quad_value) for r in table.rows))
        if max_diff / tol > worst_ratio:
            worst_ratio = max_diff / tol
            detail = (f"a={afix / PI:.4g}*pi: max|sum-quad| {max_diff:.3f} vs "
                      f"allowed {tol:.3f}")
    return worst_ratio <= 1.0, detail


@pytest.mark.parametrize("name", ["two_factor", "four_factor"])
def test_criterion_3_defaults_absolute_panels(name):
    ok, detail = _panel_defaults_check(name)
    assert _report(f"criterion 3: {name} sweep at demo defaults", ok, detail)


def test_criterion_3_defaults_conditional_panel():
    # conditional class with 10 terms: intrinsic truncation error is
    # O(M^-1/2) ~ 0.1-0.5 across the sweep, so the 5e-2 gate cannot be met
    # at the demo defaults; asserted as stated regardless
    ok, detail = _panel_defaults_check("three_factor")
    assert _report("criterion 3: three_factor sweep at demo defaults", ok, detail), (
        f"{detail}; 10-term truncation of the conditionally convergent sum "
        f"(terms decay like m^-1/2) exceeds the stated 5e-2 gate at these "
        f"defaults for every b-grid reaching the boundary"
    )


def test_criterion_3_refined_all_panels():
    """terms=1e3 and tail-driven oracle: gaps within combined bounds."""
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for name in PANELS:
        for afix in FIXED_SCALES:
            template, n_fixed = _panel_template(name, afix)
            for b in _panel_b_values(name, afix):
                factors = list(template.factors)
                factors[n_fixed] = identity.Factor(factors[n_fixed].nu, b)
                spec = identity.BesselProductSpec(k=template.k, factors=tuple(factors))
                report = identity.check_validity(spec)
                assert report.valid
                if name == "three_factor":
                    assert report.convergence_class is ConvergenceClass.CONDITIONAL
                r = summation.evaluate(spec, terms=10**3)
                q = quadrature.integrate(
                    spec, quadrature.t_max_for_tail(spec, 1e-6, cap=1500.0)
                )
                combined = summation.truncation_bound(spec, 10**3) + q.error_estimate
                if not abs(r.value - q.value) <= combined:
                    ok = False
                    detail = (f"{name} a={afix / PI:.4g}*pi b={b:.4g}: "
                              f"gap {abs(r.value - q.value):.2e} > {combined:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    assert _report(
        "criterion 3: refined sums vs tail-driven oracle",
        ok,
        detail or f"360 rows within combined bounds, {elapsed:.0f}s (limit 120s)",
    )


# --------------------------------------------------------------- criterion 4

def _random_valid_specs(count: int, scale_budget: float, seed: int = 20240917):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        nus = rng.uniform(0.0, 2.2, size=n).round(3)
        k = int(rng.integers(0, 2))
        raw = rng.uniform(0.3, 1.0, size=n)
        scales = (raw / raw.sum() * rng.uniform(0.6, scale_budget)).round(4)
        if scales.min() <= 0.01:
            continue
        try:
            spec = make_spec(k, nus.tolist(), scales.tolist())
        except Exception:
            continue
        if identity.check_validity(spec).valid:
            out.append(spec)
    return out


def test_criterion_4_correction_term_vanishing():
    specs = _random_valid_specs(10, scale_budget=1.5 * PI)
    worst = 0.0
    for spec in specs:
        corr = quadrature.correction_term(spec)
        q = quadrature.integrate(spec, quadrature.t_max_for_tail(spec, 1e-6, cap=800.0))
        worst = max(worst, abs(corr) / (1.0 + abs(q.value)))
    ok = worst <= 1e-9
    assert _report(
        "criterion 4: correction term vanishes (even parity)",
        ok,
        f"worst |corr|/(1+|I|) = {worst:.2e} over 10 random valid specs (tol 1e-9)",
    )


def test_criterion_4_odd_parity_closure():
    # sum(nu) - lam = 1: sum - integral - correction must close to zero
    cases = [
        ((1.5, 1.5), (1.0, 0.7), 2.0),
        ((2.5,), (1.2,), 1.5),
        ((1.0, 2.0), (0.9, 1.3), 2.0),
    ]
    ok = True
    worst = 0.0
    for nus, scales, lam in cases:
        n = len(nus)
        p = lam + n / 2.0
        m_terms, t_max = 2 * 10**5, 4000.0
        s = summation.sum_power_product(nus, scales, lam, m_terms)
        ival, idiff = quadrature.integrate_power_product(nus, scales, lam, t_max)
        corr = quadrature.correction_term_power_product(nus, scales, lam)
        env = 2.0**n * math.prod(math.sqrt(2.0 / (PI * a)) for a in scales)
        combined = (
            env * max(1.0, 1.0 / abs(1.0 - p)) * m_terms ** (1.0 - p)
            + idiff
            + env / (p - 1.0) * t_max ** (1.0 - p)
            + 1e-9
        )
        gap = abs(s - ival - corr)
        worst = max(worst, gap / combined)
        ok = ok and gap <= combined and abs(corr) > 1e-6
    assert _report(
        "criterion 4: odd-parity closure",
        ok,
        f"worst gap/bound = {worst:.2e} over 3 odd-parity cases",
    )


# --------------------------------------------------------------- criterion 5

def test_criterion_5_absolute_error_slope():
    # nu=(3/2,3/2), k=0, a=(1.0,0.7): slope of log|S_M - S_1e6| vs log M.
    # With no zero beat, summation by parts (DLMF 2.10) gains one power over
    # the M^(1-p) envelope bound, so the realized error decays like M^-p;
    # the window is -p +- 0.4 (the bound itself is checked in test_summation)
    spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
    assert identity.check_validity(spec).convergence_class is ConvergenceClass.ABSOLUTE
    assert identity.beat_exists(spec.scales) is None
    p = spec.lam + spec.n_factors / 2.0
    lo, hi = -p - 0.4, -p + 0.4
    ref = summation.sum_truncated(spec, 10**6)
    ms = [100, 316, 1000, 3162]
    errs = [abs(summation.sum_truncated(spec, m) - ref) for m in ms]
    slope = float(np.polyfit(np.log10(ms), np.log10(errs), 1)[0])
    ok = lo <= slope <= hi
    assert _report(
        "criterion 5a: absolute-class error slope",
        ok,
        f"measured slope {slope:.2f}, window [{lo:.1f}, {hi:.1f}] (theory -p = {-p:g})",
    ), (
        f"measured slope {slope:.2f} sits outside [{lo:.1f}, {hi:.1f}]: the "
        f"truncation error of a beat-free absolutely convergent tail should "
        f"decay like M^-p = M^{-p:g}, one power faster than the M^(1-p) bound"
    )


def test_criterion_5_conditional_envelope_slope():
    # Fig-1b-style at b=0.4: envelope slope of the raw partial sums
    spec = make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 0.4])
    m_ref = 10**6
    m0 = identity.summand(spec, 0)
    partial = m0 + np.cumsum(identity.summand_terms(spec, np.arange(1, m_ref + 1)))
    ref = summation.evaluate(spec, terms=m_ref).value
    ms = [100, 316, 1000, 3162]
    errs = []
    for m in ms:
        lo, hi = int(m * 0.9), int(m * 1.1)
        errs.append(float(np.max(np.abs(partial[lo:hi] - ref))))
    slope = float(np.polyfit(np.log10(ms), np.log10(errs), 1)[0])
    ok = -0.9 <= slope <= -0.1
    assert _report(
        "criterion 5b: conditional-class envelope slope",
        ok,
        f"measured slope {slope:.2f}, window [-0.9, -0.1] (theory -0.5)",
    )


# --------------------------------------------------------------- criterion 6

def test_criterion_6_rescaling_closure():
    cases = [
        make_spec(0, [1.5, 1.5], [1.5 * PI, 1.0 * PI]),   # 2.5 pi
        make_spec(0, [1.5, 1.5], [1.8 * PI, 1.2 * PI]),   # 3 pi
        make_spec(0, [1.0, 1.0, 1.0], [1.2 * PI, 0.8 * PI, 1.0 * PI]),  # 3 pi
        make_spec(1, [2.5, 1.5], [2.2 * PI, 1.8 * PI]),   # 4 pi
        make_spec(0, [2.0, 2.0], [2.5 * PI, 1.5 * PI]),   # 4 pi
    ]
    ok = True
    worst = 0.0
    for spec in cases:
        r = summation.evaluate(spec, terms=10**4)
        assert r.rescaled
        q = quadrature.integrate(spec, quadrature.t_max_for_tail(spec, 1e-6, cap=2e3))
        combined = r.error_bound + q.error_estimate + 1e-9
        gap = abs(r.value - q.value)
        worst = max(worst, gap / combined)
        ok = ok and gap <= combined
    assert _report(
        "criterion 6: rescaling closure",
        ok,
        f"worst gap/bound = {worst:.2e} over 5 specs with sum(a) in "
        f"{{2.5pi, 3pi, 4pi}}",
    )


# --------------------------------------------------------------- criterion 7

def test_criterion_7_band_limit(corpus):
    eligible = [s for s in corpus if s.sum_scales <= 1.8 * PI]
    assert eligible
    worst = max(quadrature.band_limit_check(spec) for spec in eligible)
    ok = worst <= 1e-6
    assert _report(
        "criterion 7: band-limit leakage",
        ok,
        f"worst leakage {worst:.2e} over {len(eligible)} corpus specs (tol 1e-6)",
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_8_specfun_invariants_and_speed():
    ok = True
    # recurrence
    for nu in np.arange(-10.0, 10.5, 0.5):
        for x in np.geomspace(0.1, 100.0, 25):
            resid = abs(
                specfun.bessel_j(nu - 1, x)
                + specfun.bessel_j(nu + 1, x)
                - (2 * nu / x) * specfun.bessel_j(nu, x)
            )
            ok = ok and resid <= 1e-10 * max(1.0, abs(specfun.bessel_j(nu, x)))
    # reflection
    for n in range(1, 21):
        sign = -1.0 if n % 2 else 1.0
        ok = ok and specfun.bessel_j(-n, 2.3) == sign * specfun.bessel_j(n, 2.3)
    # small-argument law
    for nu in (0.5, 1.0, 1.5, 2.0):
        for x in np.geomspace(1e-6, 9e-4, 8):
            ratio = specfun.bessel_j(nu, x) / ((x / 2) ** nu / math.gamma(nu + 1))
            ok = ok and (1 - 1e-5) <= ratio <= (1 + 1e-5)
    # large-argument law
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
        for x in np.linspace(50.0, 1000.0, 20):
            env = math.sqrt(2 / (PI * x))
            asym = env * math.cos(x - nu * PI / 2 - PI / 4)
            ok = ok and abs(specfun.bessel_j(nu, x) - asym) <= 2 * env / x
    # 1e5 evaluations under a second
    xs = np.linspace(0.01, 500.0, 10**5)
    t0 = time.perf_counter()
    vals = specfun.jv_array(1.5, xs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0 and np.all(np.isfinite(vals))
    assert _report(
        "criterion 8: special-function invariants",
        ok,
        f"grids pass; 1e5 evaluations in {elapsed * 1e3:.1f} ms (limit 1s)",
    )
