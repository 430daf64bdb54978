import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from besselsum import identity, quadrature, specfun, summation
from besselsum.errors import ConfigError, DampingError, DomainError, InvalidSpec, SizeError
from besselsum.identity import make_spec
from besselsum.quadrature import (
    band_limit_check,
    correction_term,
    correction_term_power_product,
    integrate,
    integrate_power_product,
    t_max_for_tail,
)

PI = math.pi


class TestIntegrate:
    def test_sine_kernel_closed_form(self):
        # integral t^{-1/2} J_{1/2}(t) dt = sqrt(2/pi) integral sin(t)/t dt
        #                                 = sqrt(2/pi) * pi/2
        spec = make_spec(0, [0.5], [1.0])
        q = integrate(spec, 2e4)
        assert q.tail_flagged  # p = 1: envelope tail bound diverges
        assert q.value == pytest.approx(math.sqrt(2 / PI) * PI / 2, abs=2e-4)

    def test_weber_schafheitlin_spherical(self):
        # integral J_{1/2}(t) J_{1/2}(t/2) / t dt = sqrt(1/2)
        spec = make_spec(0, [0.5, 0.5], [1.0, 0.5])
        q = integrate(spec, t_max_for_tail(spec, 1e-6))
        assert q.value == pytest.approx(math.sqrt(0.5), abs=q.error_estimate + 1e-9)
        assert q.value == pytest.approx(math.sqrt(0.5), abs=1e-4)

    def test_spherical_product_route(self):
        # integral j_1(a t) j_1(b t) dt = pi/(2 sqrt(ab)) * (b/a)^{3/2} / 3,
        # reached through the half-integer spec with the 1/t weight
        a, b = 1.0, 0.5
        spec = make_spec(1, [1.5, 1.5], [a, b])
        closed = (PI / (2.0 * math.sqrt(a * b))) * (b / a) ** 1.5 / 3.0
        q = integrate(spec, t_max_for_tail(spec, 1e-6))
        expected_spec_value = (b / a) ** 1.5 / 3.0  # the 1/t-weighted integral
        assert q.value == pytest.approx(expected_spec_value, abs=1e-6)
        # direct sampling of scipy's spherical j_1 reproduces the prefactor relation
        from scipy.special import spherical_jn

        ts = [0.3, 1.0, 2.7]
        for t in ts:
            lhs = spherical_jn(1, a * t) * spherical_jn(1, b * t)
            rhs = (PI / (2.0 * t * math.sqrt(a * b))) * identity.integrand(
                make_spec(1, [1.5, 1.5], [a, b]), t
            ) * t
            assert lhs == pytest.approx(rhs, rel=1e-12)
        assert closed == pytest.approx(PI / (2 * math.sqrt(a * b)) * q.value, abs=1e-5)

    def test_t_max_refinement_within_tail_bound(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        t1 = 200.0
        q1, q2 = integrate(spec, t1), integrate(spec, 2 * t1)
        tail1, flagged = quadrature.tail_bound(spec, t1)
        assert not flagged
        assert abs(q2.value - q1.value) <= tail1

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, 0.0, -5.0])
    def test_t_max_must_be_positive_and_finite(self, t_max):
        with pytest.raises(ConfigError):
            integrate(make_spec(0, [0.5, 1.5], [PI / 16, 1.0]), t_max)

    @pytest.mark.parametrize("t_max, nodes", [(math.inf, 16), (math.nan, 16), (-5.0, 16)])
    def test_power_product_checks_like_integrate(self, t_max, nodes):
        # the rule is fixed at 16 nodes per panel; a bad t_max is still refused
        assert quadrature._NODES == nodes
        with pytest.raises(ConfigError):
            integrate_power_product((1.5, 1.5), (1.0, 0.7), 2.0, t_max)

    @pytest.mark.parametrize("t_max", [1e8, 1e300])
    def test_panel_count_capped(self, t_max):
        # ceil(t_max * sum(a) / pi) panels: refused before any allocation
        spec = make_spec(0, [0.5, 1.5], [0.3, 1.0])
        with pytest.raises(SizeError, match=r"t_max = 1e\+\d+ needs .* quadrature panels"):
            integrate(spec, t_max)
        with pytest.raises(SizeError):
            integrate_power_product(spec.nus, spec.scales, spec.lam, t_max)

    def test_rejects_divergent_integrand(self):
        with pytest.raises(InvalidSpec):
            integrate(make_spec(1, [0.0], [1.0]), 10.0)  # lam <= -N/2

    def test_scale_budget_not_required(self):
        # the integral exists beyond the 2*pi budget; only the sum needs it
        spec = make_spec(0, [1.5, 1.5], [4.0, 4.0])
        q = integrate(spec, t_max_for_tail(spec, 1e-6))
        assert math.isfinite(q.value)


class TestSumIntegralIdentity:
    def test_corpus(self, corpus):
        # the main claim: sum and integral agree within combined bounds
        for spec in corpus:
            r = summation.evaluate(spec, terms=10**4, accelerate=False)
            q = integrate(spec, t_max_for_tail(spec, 1e-6))
            combined = (
                summation.truncation_bound(spec, 10**4) + q.error_estimate + 1e-6
            )
            assert abs(r.value - q.value) <= combined, spec

    def test_rescaling_closure_three_pi(self):
        # prefactor * sum(rescaled) matches the original integral
        spec = make_spec(0, [1.5, 1.5], [1.8 * PI, 1.2 * PI])
        r = summation.evaluate(spec, terms=10**4)
        assert r.rescaled
        q = integrate(spec, t_max_for_tail(spec, 1e-6))
        assert abs(r.value - q.value) <= r.error_bound + q.error_estimate + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.2, max_value=1.2),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_absolute_specs(self, factors, k):
        # absolute class only: there the oracle's tail bound is real, so
        # the combined bound is a complete error budget; the conditional
        # regime (flagged zero tail bound) is covered by the fixed corpus
        nus = [round(nu, 3) for nu, _ in factors]
        scales = [round(a, 3) for _, a in factors]
        assume(min(scales) > 0.05)
        spec = make_spec(k, nus, scales)
        report = identity.check_validity(spec)
        assume(report.valid)
        assume(report.convergence_class is identity.ConvergenceClass.ABSOLUTE)
        r = summation.evaluate(spec, terms=4000, accelerate=False)
        q = integrate(spec, t_max_for_tail(spec, 1e-6, cap=2000.0))
        combined = summation.truncation_bound(spec, 4000) + q.error_estimate + 1e-6
        assert abs(r.value - q.value) <= combined


class TestCorrectionTerm:
    def test_vanishes_even_parity(self):
        # representable specs always have even parity; the numerically
        # evaluated contour integral must vanish
        spec = make_spec(0, [0.5, 1.5], [PI / 16, 1.0])
        q = integrate(spec, 200.0)
        assert abs(correction_term(spec)) <= 1e-10 * (1.0 + abs(q.value))

    def test_vanishes_with_nonzero_k(self):
        spec = make_spec(1, [1.5, 1.5], [1.0, 0.7])
        assert abs(correction_term(spec)) <= 1e-12

    def test_damping_required(self):
        with pytest.raises(DampingError):
            correction_term(make_spec(0, [1.5, 1.5], [PI, PI]))

    def test_non_finite_integral_is_a_domain_error(self):
        # ive(-60.5, 1e-12) at the first node overflows to nan; the product
        # with ive(62, 2e-12) = 0 stays nan instead of a finite value
        with pytest.raises(DomainError, match="correction integral is nan"):
            correction_term(make_spec(0, [-60.5, 62.0], [1.0, 2.0]))

    def test_odd_parity_closes_the_gap(self):
        # sum(nu) - lam = 1: the correction is nonzero and equals
        # sum - integral within combined tail bounds
        nus, scales, lam = (1.5, 1.5), (1.0, 0.7), 2.0
        s = summation.sum_power_product(nus, scales, lam, 2 * 10**5)
        ival, idiff = integrate_power_product(nus, scales, lam, 4000.0)
        corr = correction_term_power_product(nus, scales, lam)
        assert abs(corr) > 1e-4  # genuinely nonzero
        assert abs(s - ival - corr) <= 1e-7 + idiff

    def test_odd_parity_sign_convention(self):
        # value must be negative here: positive integrand, odd parity sine +1
        corr = correction_term_power_product((1.5, 1.5), (1.0, 0.7), 2.0)
        assert corr < 0


def _reference_panel_quad(fun, edges, nodes):
    """Plain panel Gauss-Legendre from a freshly built rule: per-panel sums,
    reduced in ascending order by fsum."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = fun((mid[:, None] + half[:, None] * x[None, :]).ravel())
    return math.fsum((vals.reshape(len(mid), nodes) * w[None, :]).sum(axis=1) * half)


def _reference_integrate(nus, scales, lam, t_max):
    """16- and 8-node values on equal panels of width at most pi/sum(a)."""
    edges = np.linspace(0.0, t_max, max(1, math.ceil(t_max / (PI / math.fsum(scales)))) + 1)
    fun = lambda ts: identity.power_product_array(nus, scales, lam, ts)
    return _reference_panel_quad(fun, edges, 16), _reference_panel_quad(fun, edges, 8)


def _reference_correction(nus, scales, lam):
    """32-node rule on 35 panels over (0, 20], clustered quadratically toward 0."""
    damp = math.fsum(scales) - 2 * PI

    def g(y):
        out = y ** (-lam) if lam != 0 else np.ones_like(y)
        for nu, a in zip(nus, scales):
            out = out * specfun.ive_array(nu, a * y)
        return out * np.exp(damp * y) / (1.0 - np.exp(-2 * PI * y))

    u = np.linspace(0.0, 1.0, 35 + 1)
    edges = 20.0 * u * u
    edges[0] = 1e-12
    parity = math.sin(PI * (math.fsum(nus) - lam) / 2.0)
    return -2.0 * parity * _reference_panel_quad(g, edges, 32)


#: one spec from each demonstration panel, last scale inside the valid range
PANEL_SPECS = [
    make_spec(0, [0.5, 1.5], [PI / 16, 3.0]),
    make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 2.0]),
    make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [5 * PI / 16] * 3 + [1.5]),
]


class TestGaussRules:
    def test_tabulated_rules_are_leggauss(self):
        assert set(quadrature._GAUSS) == {8, 16, 32}
        for n, (x, w) in quadrature._GAUSS.items():
            fresh_x, fresh_w = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w)

    @pytest.mark.parametrize("spec", PANEL_SPECS)
    @pytest.mark.parametrize("t_max", [10.0, 37.3])
    def test_integrate_bitwise_reference(self, spec, t_max):
        fine, coarse = _reference_integrate(spec.nus, spec.scales, spec.lam, t_max)
        q = integrate(spec, t_max)
        assert q.value == fine
        assert q.error_estimate == abs(fine - coarse) + quadrature.tail_bound(spec, t_max)[0]

    @pytest.mark.parametrize("spec", PANEL_SPECS)
    @pytest.mark.parametrize("t_max", [10.0, 37.3])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_power_product_bitwise_reference(self, spec, t_max, shift):
        # the same 16/8-node body as integrate, also off the representable lam
        args = (spec.nus, spec.scales, spec.lam + shift, t_max)
        fine, coarse = _reference_integrate(*args)
        assert integrate_power_product(*args) == (fine, abs(fine - coarse))

    @pytest.mark.parametrize("spec", PANEL_SPECS)
    def test_correction_bitwise_reference(self, spec):
        assert correction_term(spec) == _reference_correction(spec.nus, spec.scales, spec.lam)
        # odd parity: the contour integral itself, not a vanishing multiple of it
        odd = _reference_correction(spec.nus, spec.scales, spec.lam + 1.0)
        assert odd != 0.0
        assert correction_term_power_product(spec.nus, spec.scales, spec.lam + 1.0) == odd


class TestBandLimit:
    def test_corpus_leakage(self, corpus):
        for spec in corpus:
            assert band_limit_check(spec) <= 1e-6, spec

    def test_single_factor_band_edge(self):
        # all spectral energy of J_0(t) sits below 1/(2*pi) cycles
        spec = make_spec(0, [0.0], [1.0])
        assert band_limit_check(spec) <= 1e-6



def test_triple_route_high_precision_anchor():
    # 25-digit arbitrary-precision evaluation of both sides for the
    # two-factor demo spec (mpmath quadosc / besselj partial sums):
    #   integral t^-2 J_{1/2}(pi/16 t) J_{3/2}(t) dt
    #     = 0.218709495307260977558387...
    # our float64 sum and quadrature must both hit that anchor
    ref = 0.21870949530726098
    spec = make_spec(0, [0.5, 1.5], [PI / 16, 1.0])
    r = summation.evaluate(spec, terms=10**4, accelerate=False)
    assert abs(r.value - ref) <= summation.truncation_bound(spec, 10**4) + 1e-12
    q = integrate(spec, t_max_for_tail(spec, 1e-6))
    assert abs(q.value - ref) <= q.error_estimate + 1e-12


def test_t_max_for_tail_inverts_bound():
    spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
    t = t_max_for_tail(spec, 1e-6, cap=1e6)
    bound, flagged = quadrature.tail_bound(spec, t)
    assert not flagged
    assert bound <= 1e-6 * (1 + 1e-9)


def test_t_max_for_tail_flagged_case_returns_cap():
    spec = make_spec(0, [0.5], [1.0])  # p = 1
    assert t_max_for_tail(spec, 1e-6, cap=123.0) == 123.0


def test_quadrature_imports_nothing_from_summation():
    # the oracles check the sum independently: the envelope and the 2*pi
    # budget they share with it live in identity
    tree = ast.parse(pathlib.Path(quadrature.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("summation" in name for name in imported)
