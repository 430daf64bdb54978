import math
import re

import numpy as np
import pytest
from conftest import per_block_fsum
from hypothesis import given, settings, strategies as st
from scipy.special import gamma, hyp2f1

from besselsum import identity, summation
from besselsum.errors import DomainError, InvalidSpec, SizeError, ToleranceUnreachable
from besselsum.identity import ConvergenceClass, make_spec
from besselsum.summation import (
    evaluate,
    required_terms,
    sum_truncated,
    truncation_bound,
)

PI = math.pi


def _weber_schafheitlin(mu, nu, lam, a, b):
    """DLMF 10.22.56: integral of J_mu(a t) J_nu(b t) t^-lam over (0, inf), 0 < b < a."""
    return (
        b**nu * gamma((nu + mu - lam + 1) / 2)
        / (2**lam * a ** (nu - lam + 1) * gamma((mu - nu + lam + 1) / 2) * gamma(nu + 1))
        * hyp2f1((nu + mu - lam + 1) / 2, (nu - mu - lam + 1) / 2, nu + 1, (b / a) ** 2)
    )


def test_sine_series_oracle_brute_force():
    # sum_{m>=1} sin(a m)/m = (pi - a)/2 on (0, 2 pi): confirm by partial
    # sums with tail averaging before relying on it anywhere else
    for a in (0.5, 1.0, 3.0):
        m = np.arange(1, 200001, dtype=float)
        partial = np.cumsum(np.sin(a * m) / m)
        h = max(1, round(PI / a))  # half-period sampling so averaging alternates
        tail = partial[-64 * h :: h]
        for _ in range(10):
            tail = 0.5 * (tail[1:] + tail[:-1])
        assert tail[-1] == pytest.approx((PI - a) / 2.0, abs=5e-8)


def test_sum_truncated_sine_series():
    # sum side for nu=1/2, k=0 is sqrt(2/(pi a)) [a/2 + sum sin(am)/m]
    a = 1.0
    spec = make_spec(0, [0.5], [a])
    target = math.sqrt(2.0 / (PI * a)) * (a / 2.0 + (PI - a) / 2.0)
    got = sum_truncated(spec, 2 * 10**5)
    # raw partial sums oscillate at O(1/M) around the limit
    assert got == pytest.approx(target, abs=1e-4)


def test_sum_truncated_m0_only():
    spec = make_spec(0, [0.5], [1.0])
    assert sum_truncated(spec, 0) == identity.summand(spec, 0)


def test_sum_truncated_matches_scalar_summands():
    spec = make_spec(0, [0.5, 1.5], [PI / 16, 1.0])
    direct = math.fsum(identity.summand(spec, m) for m in range(0, 201))
    assert sum_truncated(spec, 200) == pytest.approx(direct, rel=1e-15)


@pytest.mark.parametrize("terms", [0, 10, 4096, 4097, 10**4])
def test_sum_truncated_is_the_raw_kernel(terms):
    # one partial-sum kernel: the spec-typed sum is the raw one, bit for bit
    for spec in (make_spec(0, [0.5, 1.5], [PI / 16, 1.0]),
                 make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [PI / 16] * 3 + [1.0])):
        raw = summation.sum_power_product(spec.nus, spec.scales, spec.lam, terms)
        assert sum_truncated(spec, terms).hex() == raw.hex()


def test_sum_truncated_rejects_invalid():
    with pytest.raises(InvalidSpec):
        sum_truncated(make_spec(1, [0.0], [1.0]), 100)  # R3 violated


def test_term_count_must_be_a_non_negative_integer():
    # one check for every entry point: no silent truncation of 2.5 to 2, no
    # silent clamp of -1 to 0
    spec = make_spec(0, [0.5, 1.5], [1.0, 2.0])
    with pytest.raises(InvalidSpec, match="terms must be an integer, got 2.5"):
        evaluate(spec, terms=2.5)
    with pytest.raises(InvalidSpec, match="terms must be an integer, got 2.5"):
        sum_truncated(spec, 2.5)
    with pytest.raises(InvalidSpec, match="terms must be non-negative, got -1"):
        summation.sum_power_product(spec.nus, spec.scales, spec.lam, -1)
    assert type(evaluate(spec, terms=np.int64(20)).terms_used) is int


#: lengths around the block and slab boundaries
BLOCKED_LENGTHS = [0, 1, 4095, 4096, 4097, summation.SLAB * summation.BLOCK + 1]


def _outcome(fn, m0, vals) -> str:
    """A sum's float hex, or the type and message of what it raised."""
    try:
        return fn(m0, vals).hex()
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _family(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    m = np.arange(1, n + 1, dtype=float)
    if kind == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    if kind == "cancelling":  # adjacent pairs that cancel to within a few ulps
        x = rng.standard_normal(n)
        x[1::2] = -x[: n // 2 * 2 : 2] * (1.0 + rng.integers(-4, 5, n // 2) * 2.0**-52)
        return x
    if kind == "dyadic":  # exact sums a few bits too long: ties are common
        return rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-60, 1, n)
    if kind == "alternating":
        return (-1.0) ** m * m**-0.5 * rng.uniform(0.5, 2.0)
    if kind == "subnormal":
        return rng.integers(-(2**20), 2**20, n) * 5e-324
    return rng.choice([0.0, -0.0], n)  # "zeros"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BLOCKED_LENGTHS),
    st.sampled_from(["wide", "cancelling", "dyadic", "alternating", "subnormal", "zeros"]),
    st.integers(0, 2**32 - 1),
    st.floats(allow_subnormal=True) | st.sampled_from([0.0, -0.0]),
    st.lists(st.tuples(st.integers(0, 2**20), st.floats(allow_subnormal=True)), max_size=4),
)
def test_blocked_sum_is_per_block_fsum_bit_for_bit(n, kind, seed, m0, planted):
    # nan and +-inf are planted through st.floats; hex or exception must match,
    # for the whole sum and for each full block alone (the sum across blocks
    # can round a last-bit difference of one block away)
    vals = _family(kind, n, np.random.default_rng(seed))
    for pos, x in planted:
        if n:
            vals[pos % n] = x
    assert _outcome(summation._blocked_sum, m0, vals) == _outcome(per_block_fsum, m0, vals)
    for lo in range(0, n - summation.BLOCK + 1, summation.BLOCK):
        block = vals[lo : lo + summation.BLOCK]
        assert _outcome(summation._blocked_sum, 0.0, block) == _outcome(per_block_fsum, 0.0, block)


TWO_SLABS = 2 * summation.SLAB * summation.BLOCK + 7
EDGE_BLOCKS = {
    "tie_to_even_down": {0: 1.5, 1: 2.0**-53, 2: 2.0**-80, 3: -(2.0**-80)},
    "tie_to_even_up": {0: 1.0 + 2.0**-51, 1: 2.0**-53},
    "below_a_power_of_two": {0: 1.0, 1: -(2.0**-54) - 2.0**-60},
    "plus_zero": {0: 1.0, 2048: -1.0},
    "minus_zero": {k: -0.0 for k in range(4096)},
    "subnormal": {0: 5e-324, 1: 5e-324, 2048: 2.0**-1022},
    "inf": {7: math.inf},
    "inf_minus_inf": {7: math.inf, 9: -math.inf},
    "nan": {7: math.nan},
    "partial_sums_overflow": {0: 1e308, 1: 1e308, 2: -1e308},
    # the tree pairs 0 with 2048 and stays finite; fsum's running sum does not
    "only_fsum_overflows": {0: 1e308, 1: 1e308, 2048: -1e308, 2049: -1e308, 5: 1.0},
    # s1 = 1 and s2 = -2^-54 (the -2^-110 error is rounded away) meet on the
    # midpoint below 1, the narrow side of a power of two; the exact sum is
    # just past it and rounds to 1 - 2^-53
    "s2_rounds_onto_the_half_gap": {0: 1.0, 2048: -(2.0**-54), 1: -(2.0**-110)},
    # four errors of -0.75 * 2^-108 vanish one by one into s2, which stays
    # inside the half gap while the exact sum passes it: only r catches this
    "s2_rounds_inside_the_half_gap": {
        0: 1.0,
        2048: -(2.0**-54 - 2.0**-107),
        **{k: -0.75 * 2.0**-108 for k in (1024, 512, 256, 128)},
    },
}


@pytest.mark.parametrize("offset", [0, summation.SLAB * summation.BLOCK])
@pytest.mark.parametrize("name", sorted(EDGE_BLOCKS))
def test_blocked_sum_edge_blocks(name, offset):
    # each edge case in a block of its own, in the first and the second slab;
    # every other term is 0 and m0 = 0, so the block's sum passes to the
    # result unrounded
    vals = np.zeros(TWO_SLABS)
    for pos, x in EDGE_BLOCKS[name].items():
        vals[offset + pos] = x
    assert _outcome(summation._blocked_sum, 0.0, vals) == _outcome(per_block_fsum, 0.0, vals)


class TestTruncationBound:
    def test_absolute_power_law(self):
        # nu=(3/2,3/2), k=0: p = 4, bound ~ M^-3; doubling M divides by 8
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        b1, b2 = truncation_bound(spec, 1000), truncation_bound(spec, 2000)
        assert b1 / b2 == pytest.approx(8.0, rel=1e-12)

    def test_conditional_power_law(self):
        # Fig-1b-style: lam = -1, N = 3, p = 1/2, bound ~ M^-1/2
        spec = make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 0.4])
        assert identity.check_validity(spec).convergence_class is ConvergenceClass.CONDITIONAL
        b1, b2 = truncation_bound(spec, 1000), truncation_bound(spec, 4000)
        assert b1 / b2 == pytest.approx(2.0, rel=1e-12)

    def test_bound_covers_measured_error_absolute(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        ref = sum_truncated(spec, 300000)
        for M in (100, 1000, 10000):
            assert abs(sum_truncated(spec, M) - ref) <= truncation_bound(spec, M)

    def test_minimum_terms(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        with pytest.raises(InvalidSpec):
            truncation_bound(spec, 5)

    def test_inversion(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        for tol in (1e-4, 1e-8):
            m = required_terms(spec, tol)
            assert truncation_bound(spec, m) <= tol
            if m > 10:
                assert truncation_bound(spec, m - 1) > tol


class TestEvaluate:
    def test_weber_schafheitlin_half(self):
        # integral J_{1/2}(t) J_{1/2}(t/2) / t dt = sqrt(1/2)
        spec = make_spec(0, [0.5, 0.5], [1.0, 0.5])
        r = evaluate(spec, terms=10**4)
        assert r.value == pytest.approx(math.sqrt(0.5), abs=1e-4)

    def test_single_term(self):
        spec = make_spec(0, [0.5], [1.0])
        r = evaluate(spec, terms=0, accelerate=False)
        assert r.value == identity.summand(spec, 0)
        assert r.terms_used == 0

    @pytest.mark.parametrize(
        "spec, closed",
        [
            (make_spec(0, [1.5, 1.5], [1.0, 0.7]), _weber_schafheitlin(1.5, 1.5, 3.0, 1.0, 0.7)),
            (make_spec(0, [0.5], [2.0]), math.sqrt(PI) / 2.0),  # sqrt(1/pi) * Si(inf)
            (make_spec(1, [2.5, 2.5], [1.0, 0.5]), _weber_schafheitlin(2.5, 2.5, 3.0, 1.0, 0.5)),
        ],
    )
    def test_error_bound_below_ten_terms_is_inf(self, spec, closed):
        # the envelope bound starts at M = 10; below it no bound is claimed
        for m in range(10):
            assert evaluate(spec, terms=m).error_bound == math.inf
        for m in (10, 11, 20, 50, 100, 1000):
            r = evaluate(spec, terms=m)
            assert abs(r.value - closed) <= r.error_bound

    def test_rescale_prefactor_contract(self):
        # value = A^(sum nu - 1 - 2k) * (sum of the rescaled spec)
        spec = make_spec(0, [0.5, 1.5], [2 * PI, 2 * PI])
        scaled, prefactor, big_a = identity.rescale(spec)
        r = evaluate(spec, terms=2000, accelerate=False)
        assert r.rescaled and r.rescale_A == pytest.approx(big_a)
        assert r.value == pytest.approx(prefactor * sum_truncated(scaled, 2000), rel=1e-14)

    def test_invalid_spec_raises_with_report(self):
        with pytest.raises(InvalidSpec) as exc_info:
            evaluate(make_spec(1, [0.0], [1.0]), terms=100)
        assert exc_info.value.report is not None
        assert not exc_info.value.report.valid

    def test_tol_mode_absolute(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        r = evaluate(spec, tol=1e-8)
        assert r.error_bound <= 1e-8
        ref = sum_truncated(spec, 300000)
        assert abs(r.value - ref) <= 2e-8

    def test_tolerance_unreachable_absolute(self):
        spec = make_spec(0, [1.5, 1.5], [1.0, 0.7])
        with pytest.raises(ToleranceUnreachable):
            evaluate(spec, tol=1e-30, m_max=10**5)

    def test_requires_exactly_one_target(self):
        spec = make_spec(0, [0.5], [1.0])
        with pytest.raises(InvalidSpec):
            evaluate(spec)
        with pytest.raises(InvalidSpec):
            evaluate(spec, terms=10, tol=1e-3)

    def test_nan_tol_is_invalid(self):
        with pytest.raises(InvalidSpec, match="tol must be positive, got nan"):
            evaluate(make_spec(0, [0.5], [1.0]), tol=math.nan)

    def test_nonfinite_sum_is_domain_error(self):
        # J_nu for nu = 1e300 gives nan terms beside a finite (zero) bound
        with pytest.raises(DomainError, match="leave the float range"):
            evaluate(make_spec(0, [1e300], [1.0]), terms=10)

    def test_result_class_matches_report(self, corpus):
        for spec in corpus:
            r = evaluate(spec, terms=256)
            assert r.convergence_class is identity.check_validity(spec).convergence_class

    def test_json_rendering_keys(self):
        r = evaluate(make_spec(0, [0.5], [1.0]), terms=128)
        d = r.to_dict()
        assert set(d) == {"value", "terms_used", "error_bound", "class",
                          "accelerated", "rescaled", "A"}


class TestOneAnalysis:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        fn = getattr(identity, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(identity, name, counted)
        return calls

    @pytest.mark.parametrize(
        "spec, aliased_calls",
        [
            (make_spec(0, [1.5, 1.5], [1.0, 0.7]), 0),  # absolute: no beat enumeration
            (make_spec(0, [0.5], [1.0]), 1),  # conditional: beats feed acceleration
            (make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 0.4]), 1),
        ],
    )
    def test_tol_mode_analyses_once(self, monkeypatch, spec, aliased_calls):
        checks = self._count(monkeypatch, "check_validity")
        aliased = self._count(monkeypatch, "aliased_beat_frequencies")
        try:
            evaluate(spec, tol=1e-6, m_max=10**5)
        except ToleranceUnreachable:
            pass
        assert len(checks) == 1
        assert len(aliased) == aliased_calls

    def test_fallback_bound_is_truncation_bound(self):
        for spec in (make_spec(0, [1.5, 1.5], [1.0, 0.7]),
                     make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 0.4])):
            for m in (10, 100, 4097):
                r = evaluate(spec, terms=m, accelerate=False)
                assert r.error_bound == truncation_bound(spec, m)
                assert r.value == sum_truncated(spec, m)


def test_no_acceleration_before_the_turning_point():
    # a = 5e-324: every a m of the averaged half is far below the turning
    # point, where averaging reported value 0 with error_bound 0 although
    # the integral is about 5.6e161
    spec = make_spec(0, [0.5], [5e-324])
    r = evaluate(spec, terms=1000)
    assert not r.accelerated and r.error_bound > 1e161
    with pytest.raises(ToleranceUnreachable):
        evaluate(spec, tol=1e-6, m_max=10**4)


@pytest.mark.parametrize("terms", [summation.MAX_TERMS + 1, 10**12])
def test_term_count_beyond_the_cap_is_a_size_error(terms):
    # raised before the term array is allocated, naming M and the cap
    spec = make_spec(0, [0.5], [1.0])
    msg = f"{terms} terms requested, beyond the cap of {summation.MAX_TERMS}"
    with pytest.raises(SizeError, match=msg):
        evaluate(spec, terms=terms)
    with pytest.raises(SizeError, match=msg):
        evaluate(spec, terms=terms, accelerate=False)
    with pytest.raises(SizeError, match=msg):
        evaluate(spec, tol=1e-15, m_max=terms)
    with pytest.raises(SizeError, match=msg):
        summation.sum_power_product((0.5,), (1.0,), 0.5, terms)
    with pytest.raises(SizeError, match=msg):
        sum_truncated(spec, terms)


@pytest.mark.parametrize("m_max", [math.nan, -5, 2.5, math.inf])
@pytest.mark.parametrize(
    "spec",
    [make_spec(0, [0.5], [1.0]), make_spec(0, [0.5, 1.5], [0.5, 1.0])],
    ids=["conditional", "absolute"],
)
def test_m_max_must_be_a_non_negative_integer(spec, m_max):
    # checked once, first: nan no longer lifts the cap, and -5 no longer reads
    # as a bad term count (conditional) or an unreachable tolerance (absolute)
    msg = re.escape(f"m_max must be a non-negative integer, got {m_max}")
    with pytest.raises(InvalidSpec, match=msg):
        evaluate(spec, tol=1e-6, m_max=m_max)
    with pytest.raises(InvalidSpec, match=msg):
        evaluate(spec, terms=100, m_max=m_max)


def test_m_max_beyond_the_term_cap_is_allowed():
    # the cap applies to the terms summed, not to the ceiling on them
    spec = make_spec(0, [0.5, 1.5], [0.5, 1.0])
    assert evaluate(spec, tol=1e-6, m_max=2**40) == evaluate(spec, tol=1e-6)


class TestAcceleration:
    def test_never_worsens_conditional(self):
        # conditional specs with a trustworthy independent reference:
        # integral sin(t)/t dt and integral J_0(t) dt are classical
        cases = [
            (make_spec(0, [0.5], [1.0]), math.sqrt(2 / PI) * PI / 2),
            (make_spec(0, [0.5], [3.0]), math.sqrt(2 / (3 * PI)) * PI / 2),
            (make_spec(0, [0.0], [1.0]), 1.0),
        ]
        for spec, ref in cases:
            raw = evaluate(spec, terms=10**4, accelerate=False)
            acc = evaluate(spec, terms=10**4, accelerate=True)
            assert acc.accelerated
            assert abs(acc.value - ref) <= abs(raw.value - ref) + 1e-12

    def test_acceleration_error_estimate_honest(self):
        spec = make_spec(0, [0.5], [1.0])
        target = math.sqrt(2 / PI) * PI / 2
        r = evaluate(spec, terms=10**4)
        assert abs(r.value - target) <= 10.0 * r.error_bound + 1e-12

    def test_conditional_tol_via_acceleration(self):
        # bound inversion alone would need ~1.6e6 terms; acceleration must
        # reach the tolerance within the 1e6 cap
        r = evaluate(make_spec(0, [0.5], [1.0]), tol=1e-6, m_max=10**6)
        assert r.accelerated and r.terms_used <= 10**6
        assert abs(r.value - math.sqrt(2 / PI) * PI / 2) <= 1e-6


def test_partial_sums_bounded(corpus):
    # from the bound's floor onward, partial sums never leave |S_inf| + bound(10)
    for spec in corpus:
        r = evaluate(spec, terms=10**4)
        budget = abs(r.value) + truncation_bound(spec, 10)
        m0 = identity.summand(spec, 0)
        partial = m0 + np.cumsum(identity.summand_terms(spec, np.arange(1, 100001)))
        assert np.max(np.abs(partial[9:])) <= budget
