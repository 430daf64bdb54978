import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besselsum import identity, quadrature, summation
from besselsum.errors import DampingError, DomainError, InvalidSpec, SizeError
from besselsum.specfun import is_negative_integer
from besselsum.identity import (
    BesselProductSpec,
    ConvergenceClass,
    beat_exists,
    beat_frequencies,
    check_validity,
    integrand,
    integrand_conditions_ok,
    make_spec,
    rescale,
    summand,
)

PI = math.pi


def two_factor_spec(a=PI / 16, b=1.0):
    return make_spec(0, [0.5, 1.5], [a, b])


def three_factor_spec(a=3 * PI / 16, b=0.4):
    return make_spec(2, [0.0, 1.0, 2.0], [a, a, b])


def four_factor_spec(a=PI / 16, b=1.0):
    return make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [a, a, a, b])


class TestSpecType:
    def test_lambda_examples(self):
        assert make_spec(0, [0.5, 1.5], [1.0, 1.0]).lam == 2.0
        assert make_spec(2, [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]).lam == -1.0

    def test_empty_factor_list_rejected(self):
        with pytest.raises(InvalidSpec):
            BesselProductSpec(k=0, factors=())

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InvalidSpec):
            make_spec(0, [0.5], [0.0])
        with pytest.raises(InvalidSpec):
            make_spec(0, [0.5], [-1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidSpec):
            make_spec(0, [0.5, 1.5], [1.0])

    def test_json_round_trip(self):
        spec = four_factor_spec()
        again = BesselProductSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    @pytest.mark.parametrize(
        "k, nus, scales",
        [
            (0, [0.5, 0.5], [1e308, 1e308]),  # sum of the scales
            (0, [1e308, 1e308], [1.0, 1.0]),  # sum of the orders
            (10**400, [0.5], [1.0]),  # 2.0 * k
            (-(10**308), [0.5], [1.0]),  # lam = sum(nu) - 2k rounds to inf
            (0, [-1e308, 1e308], [1.0, 1.0]),  # the t -> 0 exponent sums |nu|
        ],
    )
    def test_beyond_float_range_rejected(self, k, nus, scales):
        with pytest.raises(InvalidSpec, match="finite floats"):
            make_spec(k, nus, scales)

    @pytest.mark.parametrize("k", [1e400, 2.5, "2", None])
    def test_from_dict_leaves_k_to_the_constructor(self, k):
        with pytest.raises(InvalidSpec, match="k must be an integer"):
            BesselProductSpec.from_dict({"k": k, "factors": [{"nu": 0.5, "a": 1.0}]})

    def test_lambda_is_derived(self):
        spec = three_factor_spec()
        assert spec.lam == spec.sum_nu - 2 * spec.k


def _oracle_signed_sums(a):
    """(s, fsum of s_j a_j) for every sign vector s with s_0 = +1, in
    itertools.product order."""
    return [
        ((1,) + signs, math.fsum(s * x for s, x in zip((1,) + signs, a)))
        for signs in itertools.product((1, -1), repeat=len(a) - 1)
    ]


_scale_lists = st.one_of(
    st.lists(st.floats(min_value=0.01, max_value=6.0), min_size=1, max_size=8),
    # integer multiples of one unit: many exact and near beats
    st.tuples(
        st.sampled_from([0.1, 0.25, 1.0 / 3.0, PI / 16, 0.7]),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
    ).map(lambda t: [t[0] * m for m in t[1]]),
    # wide magnitudes, subnormals included
    st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=1, max_size=8),
)


class TestBeats:
    def test_equal_pair(self):
        w = beat_exists([1.0, 1.0])
        assert w is not None and w[0] == 1
        assert math.fsum(s * a for s, a in zip(w, [1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_one_two_three(self):
        w = beat_exists([1.0, 2.0, 3.0])
        assert w is not None
        assert abs(math.fsum(s * a for s, a in zip(w, [1.0, 2.0, 3.0]))) <= 1e-12 * 6.0

    def test_one_two_four_none(self):
        # brute-force oracle over all 8 sign vectors
        a = (1.0, 2.0, 4.0)
        residuals = [
            abs(math.fsum(s * x for s, x in zip(signs, a)))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        assert min(residuals) > 1e-12 * 7.0
        assert beat_exists(a) is None

    def test_size_bound(self):
        with pytest.raises(SizeError):
            beat_exists([1.0] * 31)

    def test_size_cap_raises_before_building(self):
        start = time.perf_counter()
        with pytest.raises(SizeError, match="N = 21 factors give 1048576 signed sums"):
            beat_exists([1.0] * 21)
        with pytest.raises(SizeError):
            beat_frequencies([0.1] * 21)
        with pytest.raises(SizeError):
            check_validity(make_spec(0, [1.5] * 21, [0.1] * 21))
        assert time.perf_counter() - start < 0.1

    def test_size_cap_admits_the_capped_table(self, monkeypatch):
        assert identity.MAX_SIGNED_SUMS == 2**19  # N <= 20
        monkeypatch.setattr(identity, "MAX_SIGNED_SUMS", 8)
        assert beat_exists([1.0, 2.0, 4.0, 7.0]) == (1, 1, 1, -1)
        with pytest.raises(SizeError):
            beat_exists([1.0, 2.0, 4.0, 8.0, 15.0])

    @given(_scale_lists)
    @settings(max_examples=200, deadline=None)
    def test_table_matches_the_fsum_oracle(self, scales):
        # bit for bit: the first witness in product order and the sorted set
        table = _oracle_signed_sums(scales)
        tol = identity.BEAT_RTOL * math.fsum(abs(x) for x in scales)
        assert beat_exists(scales) == next((s for s, v in table if abs(v) <= tol), None)
        expected = sorted({0.0 if abs(v) <= tol else abs(v) for _, v in table})
        assert [f.hex() for f in beat_frequencies(scales)] == [f.hex() for f in expected]

    def test_frequencies_contain_total(self):
        freqs = beat_frequencies([1.0, 0.7])
        assert freqs[-1] == pytest.approx(1.7)
        assert freqs[0] == pytest.approx(0.3)

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_presence_order_independent_and_negation(self, scales, rng):
        w = beat_exists(scales)
        shuffled = list(scales)
        rng.shuffle(shuffled)
        w2 = beat_exists(shuffled)
        assert (w is None) == (w2 is None)
        if w is not None:
            tol = 1e-12 * math.fsum(scales)
            assert abs(math.fsum(s * a for s, a in zip(w, scales))) <= tol
            neg = tuple(-s for s in w)
            assert abs(math.fsum(s * a for s, a in zip(neg, scales))) <= tol


class TestValidity:
    def test_three_factor_demo_conditional(self):
        report = check_validity(three_factor_spec())
        assert report.valid
        assert report.convergence_class is ConvergenceClass.CONDITIONAL

    def test_four_factor_negative_integer_extension(self):
        report = check_validity(four_factor_spec())
        assert report.valid
        assert report.negative_integer_set == (1,)
        assert any(r.ident == "R1-neg-int" for r in report.triggered_rules)

    def test_four_factor_k_below_extension_invalid(self):
        spec = make_spec(-2, [-1.5, -1.0, 0.5, 0.0], [PI / 16] * 3 + [1.0])
        report = check_validity(spec)
        assert not report.valid
        assert report.convergence_class is ConvergenceClass.INVALID

    def test_scale_budget_violation(self):
        spec = make_spec(0, [0.5, 1.5], [1.5 * PI, 1.5 * PI])
        report = check_validity(spec)
        assert not report.valid
        assert report.needs_rescale
        assert report.convergence_class is ConvergenceClass.INVALID

    def test_beat_pair_absolute(self):
        # N=2, nu=(1/2,1/2), k=0, a=(1,1): witness exists, strict threshold
        # is 2k - N/2 + 1 = 0 and sum(nu) = 1 > 0, hence valid and absolute
        report = check_validity(make_spec(0, [0.5, 0.5], [1.0, 1.0]))
        assert report.valid
        assert report.beat_witness is not None
        assert report.convergence_class is ConvergenceClass.ABSOLUTE

    def test_boundary_with_exact_strict_threshold_invalid(self):
        # sum(a) = 2*pi exactly and sum(nu) equals the strict threshold:
        # strict inequality required, so invalid
        spec = make_spec(0, [0.3, -0.3], [PI, PI])
        report = check_validity(spec)
        assert not report.valid
        assert any(r.ident == "R4" and r.violated for r in report.triggered_rules)

    def test_boundary_included_when_strictly_above(self):
        spec = make_spec(0, [1.5, 1.5], [PI, PI])
        report = check_validity(spec)
        assert report.valid
        assert not report.needs_rescale

    def test_invalid_implies_invalid_class(self, corpus):
        for spec in corpus:
            report = check_validity(spec)
            if not report.valid:
                assert report.convergence_class is ConvergenceClass.INVALID

    @given(st.integers(min_value=-3, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_r3_monotone_in_k(self, k):
        nus, scales = [0.5, 1.5], [1.0, 2.0]
        base = check_validity(make_spec(k, nus, scales))
        if any(r.ident == "R3" and r.violated for r in base.triggered_rules):
            nxt = check_validity(make_spec(k + 1, nus, scales))
            assert any(r.ident == "R3" and r.violated for r in nxt.triggered_rules)


def _old_integral_ok(spec):
    """The integral's own three conditions: zero-limit exponent >= 0, lam > -N/2,
    and lam > 1 - N/2 when a zero beat exists."""
    n = spec.n_factors
    neg_int = [v for v in spec.nus if is_negative_integer(v)]
    if 2 * spec.k + math.fsum(abs(v) - v for v in neg_int) < -1e-12:
        return False
    if not spec.lam > -n / 2.0:
        return False
    return beat_exists(spec.scales) is None or spec.lam > 1.0 - n / 2.0


@st.composite
def _integral_specs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=-2, max_value=2))
    nus = draw(st.lists(
        # orders within INTEGER_TOL of a negative integer count as one; -1.000001 does not
        st.sampled_from([-3.0, -2.0, -1.0, -1.5, -0.5, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5,
                         -0.9999999999999, -2.0000000000004, -1.000001]),
        min_size=n, max_size=n,
    ))
    kind = draw(st.sampled_from(["random", "beats", "boundary", "rescaled"]))
    if kind == "beats":
        unit = draw(st.sampled_from([0.25, PI / 16, 0.3]))
        scales = [unit * draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    else:
        hi = 3.0 if kind == "rescaled" else 1.2
        scales = draw(st.lists(st.floats(min_value=0.05, max_value=hi), min_size=n, max_size=n))
        if kind == "boundary":
            head = [a * (PI / n) for a in scales[:-1]]
            scales = head + [2 * PI - math.fsum(head)]
    return make_spec(k, nus, scales)


class TestIntegralConditions:
    @given(_integral_specs())
    @settings(max_examples=300, deadline=None)
    def test_reading_of_check_validity_equals_the_three_conditions(self, spec):
        ok, reason = integrand_conditions_ok(spec)
        assert ok == _old_integral_ok(spec)
        assert (reason == "") == ok

    def test_boundary_without_beat_binds_only_the_sum(self):
        spec = make_spec(0, [0.3, -0.3], [PI / 2, 1.5 * PI])
        report = check_validity(spec)
        assert report.beat_witness is None
        assert [r.ident for r in report.triggered_rules if r.violated] == ["R4"]
        assert integrand_conditions_ok(spec) == (True, "")

    def test_zero_beat_binds_the_integral_too(self):
        spec = make_spec(0, [0.3, -0.3], [PI, PI])
        ok, reason = integrand_conditions_ok(spec)
        assert not ok and "zero beat" in reason

    def test_near_integer_order_at_the_relaxed_bound(self):
        # -0.9999999999999 is a negative integer to is_negative_integer; at k = -1 the
        # zero-limit exponent is -2e-13, inside the tolerance, so the t -> 0 limit
        # exists and R1 holds for the sum and the integral alike
        spec = make_spec(-1, [-0.9999999999999, 0.5], [0.5, 1.0])
        assert not any(r.ident == "R1" for r in check_validity(spec).triggered_rules)
        assert integrand_conditions_ok(spec) == (True, "")
        assert math.isfinite(identity.zero_limit(spec)) and identity.zero_limit(spec) != 0.0
        below = make_spec(-2, [-0.9999999999999, 0.5], [0.5, 1.0])
        assert any(r.ident == "R1" and r.violated for r in check_validity(below).triggered_rules)
        with pytest.raises(InvalidSpec):
            identity.zero_limit(below)

    def test_budget_binds_only_the_sum(self):
        spec = make_spec(0, [0.5, 1.5], [1.5 * PI, 1.5 * PI])
        assert not check_validity(spec).valid
        assert integrand_conditions_ok(spec) == (True, "")


class TestRescale:
    def test_four_pi(self):
        # sum(a) = 4*pi, k = 0, sum(nu) = 2 -> A = 2, prefactor 2^(2-1-0) = 2
        spec = make_spec(0, [0.5, 1.5], [2 * PI, 2 * PI])
        scaled, prefactor, big_a = rescale(spec)
        assert big_a == pytest.approx(2.0, rel=1e-15)
        assert prefactor == pytest.approx(2.0, rel=1e-15)
        assert scaled.sum_scales == pytest.approx(2 * PI, rel=1e-15)

    def test_identity_below_budget(self):
        spec = make_spec(0, [0.5, 1.5], [PI / 2, PI / 2])
        scaled, prefactor, big_a = rescale(spec)
        assert scaled == spec and prefactor == 1.0 and big_a == 1.0

    def test_boundary_untouched(self):
        spec = make_spec(0, [1.5, 1.5], [PI, PI])
        scaled, prefactor, big_a = rescale(spec)
        assert scaled == spec and big_a == 1.0

    def test_one_float_past_the_boundary_is_rescaled(self):
        # fl(2*pi*(1 + 1e-12)) is just past the boundary tolerance: the checker
        # asks for a rescale, so evaluate must rescale rather than raise R2
        spec = make_spec(0, [1.5], [2 * PI * (1 + 1e-12)])
        assert check_validity(spec).needs_rescale
        result = summation.evaluate(spec, terms=100)
        assert result.rescaled and result.rescale_A > 1.0

    @pytest.mark.parametrize("offset, side", [(-2e-12, -1), (0.0, 0), (2e-12, 1)])
    def test_budget_readers_agree(self, offset, side):
        spec = make_spec(0, [1.5, 1.5], [PI * (1 + offset)] * 2)
        assert identity.scale_budget(spec.sum_scales) == side
        report = check_validity(spec)
        assert report.needs_rescale is (side > 0)
        assert any(r.ident == "R2-boundary" for r in report.triggered_rules) is (side == 0)
        assert (rescale(spec)[2] != 1.0) is (side > 0)
        if side < 0:
            assert math.isfinite(quadrature.correction_term(spec))
        else:
            with pytest.raises(DampingError):
                quadrature.correction_term(spec)

    @pytest.mark.parametrize(
        "spec, expo",
        [
            (make_spec(0, [50.0, 50.0], [1e10, 1.0]), "99"),  # A^99 overflows
            (make_spec(1, [0.3, 0.3, 0.3, 0.2], [1e300, 1.0, 1.0, 1.0]), "-1.9"),  # underflows
        ],
    )
    def test_prefactor_beyond_float_range_is_a_domain_error(self, spec, expo):
        with pytest.raises(DomainError, match=rf"A\^{expo} with A = "):
            rescale(spec)

    @given(st.floats(min_value=0.1, max_value=30.0), st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, a1, a2):
        spec = make_spec(0, [1.5, 1.5], [a1, a2])
        once, p1, A1 = rescale(spec)
        twice, p2, A2 = rescale(once)
        assert twice == once and p2 == 1.0 and A2 == 1.0
        assert once.sum_scales <= 2 * PI * (1 + 1e-12)


class TestSummandIntegrand:
    def test_m0_zero_for_positive_exponent(self):
        assert summand(three_factor_spec(), 0) == 0.0  # exponent 2k = 4 > 0

    def test_m0_four_factor_leading_coefficients(self):
        # exponent 0: half the product of leading small-argument coefficients
        a, b = PI / 16, 1.0
        c1 = (a / 2.0) ** -1.5 / math.gamma(-0.5)
        c2 = -(a / 2.0)
        c3 = (a / 2.0) ** 0.5 / math.gamma(1.5)
        c4 = 1.0
        expect = 0.5 * c1 * c2 * c3 * c4
        assert summand(four_factor_spec(a, b), 0) == pytest.approx(expect, rel=1e-14)
        # cross-check against the integrand near zero
        assert integrand(four_factor_spec(a, b), 1e-6) == pytest.approx(2 * expect, rel=1e-6)

    def test_divergent_m0_raises(self):
        with pytest.raises(InvalidSpec):
            summand(make_spec(-1, [0.5, 1.5], [1.0, 1.0]), 0)

    def test_sine_series_term(self):
        # m^{-1/2} J_{1/2}(m) = sqrt(2/pi) sin(m)/m
        got = summand(make_spec(0, [0.5], [1.0]), 3)
        assert got == pytest.approx(math.sqrt(2 / PI) * math.sin(3.0) / 3.0, rel=1e-13)

    def test_agreement_with_integrand(self, corpus):
        for spec in corpus:
            for m in (1, 2, 7, 40):
                s, f = summand(spec, m), integrand(spec, float(m))
                assert s == f or s == pytest.approx(f, rel=1e-15)

    def test_zero_limit_consistency(self, corpus):
        # |f(1e-8) - 2 * summand(0)| <= 1e-6 (1 + |2 summand(0)|) at exponent 0
        for spec in corpus:
            if abs(spec.zero_exponent()) > 1e-12:
                continue
            twice = 2.0 * summand(spec, 0)
            assert abs(integrand(spec, 1e-8) - twice) <= 1e-6 * (1.0 + abs(twice))

    def test_integrand_zero_for_positive_exponent(self):
        assert integrand(three_factor_spec(), 0.0) == 0.0

    def test_integrand_composition_against_arbitrary_precision(self):
        # t^{-2} J_{1/2}(a t) J_{3/2}(b t) at t = 2, independent route
        import mpmath as mp

        mp.mp.dps = 30
        a, b = PI / 16, 1.0
        spec = two_factor_spec(a, b)
        ref = float(
            mp.mpf(2) ** -2
            * mp.besselj(mp.mpf(1) / 2, a * 2)
            * mp.besselj(mp.mpf(3) / 2, b * 2)
        )
        assert integrand(spec, 2.0) == pytest.approx(ref, rel=1e-13)

    def test_integrand_large_t_envelope(self):
        # |f(t)| <= C t^(-(lam + N/2)) with C the product of envelope amplitudes
        spec = two_factor_spec()
        p = spec.lam + spec.n_factors / 2.0
        c = math.prod(math.sqrt(2.0 / (PI * a)) for a in spec.scales)
        ts = np.geomspace(100.0, 1000.0, 200)
        vals = identity.integrand_array(spec, ts)
        assert np.all(np.abs(vals) <= 1.05 * c * ts ** (-p))

    def test_negative_m_rejected(self):
        with pytest.raises(InvalidSpec):
            summand(two_factor_spec(), -1)
