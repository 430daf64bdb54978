import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from conftest import per_block_fsum
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.special import spherical_jn

from besselsum import identity, specfun, summation
from besselsum.errors import DivergentAtZero, DomainError
from besselsum.identity import make_spec
from besselsum.specfun import bessel_j, is_negative_integer, ive_array, small_argument_coeff

mp.mp.dps = 30

K = specfun._HANKEL_TERMS
EPS = np.finfo(float).eps

#: orders in [-3, 12]: integers (negative ones included), half-integers, generic
ORDERS = st.one_of(
    st.integers(-3, 12).map(float),
    st.integers(-3, 11).map(lambda n: n + 0.5),
    st.floats(-3.0, 12.0),
)


def hankel_x0(nu: float) -> float:
    return specfun._hankel_x0(nu, specfun._hankel_coeffs(nu, K + 1)[-1])


def scipy_j(nu: float, x: np.ndarray) -> np.ndarray:
    """scipy.special.jv with jv_array's reflection of negative integer orders."""
    if is_negative_integer(nu):
        n = -round(nu)
        return -special.jv(float(n), x) if n % 2 else special.jv(float(n), x)
    return special.jv(nu, x)


class TestOrderClassification:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, False),
            (3.0, False),
            (-2.0, True),
            (0.5, False),
            (-1.5, False),
            (0.3, False),
            (-0.77, False),
            (2.0 + 5e-13, False),  # a non-negative integer, inside the 1e-12 tolerance
            (2.0 + 1e-9, False),
            (-2.0 + 5e-13, True),  # inside the 1e-12 tolerance
            (-2.0 + 1e-9, False),  # outside it
        ],
    )
    def test_kinds(self, value, expected):
        assert is_negative_integer(value) is expected

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            is_negative_integer(float("nan"))
        with pytest.raises(DomainError):
            is_negative_integer(float("inf"))

    @given(st.integers(min_value=-50, max_value=50))
    def test_integers_classified_exactly(self, n):
        assert is_negative_integer(float(n)) is (n < 0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0
        assert bessel_j(-3.0, 0.0) == 0.0
        assert math.copysign(1.0, bessel_j(-1.0, 0.0)) == 1.0  # +0, not -0
        assert bessel_j(5e-13, 0.0) == bessel_j(-5e-13, 0.0) == 1.0  # order 0 to 1e-12
        assert bessel_j(2e-12, 0.0) == 0.0

    def test_zero_divergent_for_negative_noninteger(self):
        with pytest.raises(DivergentAtZero):
            bessel_j(-0.5, 0.0)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -0.1)

    def test_half_integer_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 this is 2/pi
        got = bessel_j(0.5, math.pi / 2)
        assert got == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_reflection_even_order(self):
        assert bessel_j(-2.0, 1.7) == bessel_j(2.0, 1.7)

    def test_reflection_exact(self):
        # J_{-n} = (-1)^n J_n, exactly as computed
        for n in range(1, 21):
            for x in (0.3, 1.7, 9.2, 50.1):
                sign = -1.0 if n % 2 else 1.0
                assert bessel_j(-float(n), x) == sign * bessel_j(float(n), x)

    def test_against_arbitrary_precision(self):
        # independent high-precision series evaluation as the oracle
        cases = [(3.0, 10.0), (0.0, 1.0), (1.5, 7.3), (-2.5, 4.4), (12.0, 30.0)]
        for nu, x in cases:
            ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
            assert bessel_j(nu, x) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_accuracy_contract_grid(self):
        # rel <= 1e-12 away from zeros, abs <= 1.5e-14 near them, on a
        # deterministic grid covering |nu| <= 50, x <= 1e4
        nus = [-50.0, -12.5, -3.0, -0.5, 0.0, 0.5, 2.0, 7.5, 25.0, 50.0]
        xs = [1e-4, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0]
        for nu in nus:
            for x in xs:
                if nu < 0 and not is_negative_integer(nu) and x < 1e-2:
                    continue  # divergent region, values overflow-scale
                got = bessel_j(nu, x)
                ref = float(mp.besselj(mp.mpf(repr(nu)), mp.mpf(repr(x))))
                err = abs(got - ref)
                ok = (ref != 0 and err / abs(ref) <= 1e-12) or err <= 1.5e-14
                assert ok, f"nu={nu} x={x}: got {got!r} ref {ref!r}"

    def test_recurrence_grid(self):
        # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu
        for nu in np.arange(-10.0, 10.5, 0.5):
            for x in np.geomspace(0.1, 100.0, 25):
                jm = bessel_j(nu - 1.0, x)
                jp = bessel_j(nu + 1.0, x)
                j0 = bessel_j(nu, x)
                resid = abs(jm + jp - (2.0 * nu / x) * j0)
                assert resid <= 1e-10 * max(1.0, abs(j0))

    def test_small_argument_law(self):
        for nu in (0.5, 1.0, 1.5, 2.0):
            for x in np.geomspace(1e-6, 9e-4, 12):
                lead = (x / 2.0) ** nu / math.gamma(nu + 1.0)
                ratio = bessel_j(nu, x) / lead
                assert 1.0 - 1e-5 <= ratio <= 1.0 + 1e-5

    def test_large_argument_law(self):
        # first Hankel correction is envelope*(4 nu^2 - 1)/(8 x); the 2/x
        # budget covers orders up to 2
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
            for x in np.linspace(50.0, 1000.0, 39):
                envelope = math.sqrt(2.0 / (math.pi * x))
                asym = envelope * math.cos(x - nu * math.pi / 2.0 - math.pi / 4.0)
                assert abs(bessel_j(nu, x) - asym) <= 2.0 * envelope / x


class TestJvKernel:
    """jv_array: the Hankel expansion (DLMF 10.17.3) from x0(nu) up,
    scipy.special.jv below."""

    @settings(max_examples=300, deadline=None)
    @given(ORDERS, st.floats(0.0, 1.0))
    def test_hankel_against_mpmath(self, nu, frac):
        x0 = hankel_x0(nu)
        x = x0 * (4e6 / x0) ** frac  # log-uniform over [x0, 4e6]
        got = specfun.jv_array(nu, np.array([x]))[0]
        ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
        scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
        assert abs(got - ref) <= 1e-14 * scale, (nu, x, got, ref)

    @pytest.mark.parametrize(
        "nu", [0.0, 1.0, -1.0, -3.0, 2.0, 12.0, 0.5, -1.5, 11.5, 0.3, -2.7, 12.4,
               12.5, 13.0, -14.0, 20.5],
    )
    def test_scipy_below_x0_bit_for_bit(self, nu):
        x0 = hankel_x0(nu)
        top = x0 if math.isfinite(x0) else 1e6  # |nu| > K + 1/2: scipy everywhere
        xs = np.concatenate([top * np.linspace(1e-3, 1.0, 500, endpoint=False),
                             [math.nextafter(top, 0.0)]])
        assert specfun.jv_array(nu, xs).tobytes() == scipy_j(nu, xs).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(ORDERS, st.floats(-12.5, 12.5)))
    def test_x0_bounds_first_neglected_term(self, nu):
        a_k = specfun._hankel_coeffs(nu, K + 1)[-1]
        x0 = hankel_x0(nu)
        assert abs(a_k) / x0**K <= EPS / 8
        floor = max(abs(nu), 1.0)
        assert x0 >= floor
        if x0 > floor:  # set by the term, so the smallest such x
            assert abs(a_k) / (x0 * (1.0 - 1e-12)) ** K > EPS / 8

    def test_x0_terminating_and_out_of_reach(self):
        # half-integer orders up to K - 1/2: a_K = 0, the expansion is exact
        for n in range(-K, K):
            assert hankel_x0(n + 0.5) == max(abs(n + 0.5), 1.0)
        # DLMF 10.17(iii) bounds the K-term remainder only for |nu| <= K + 1/2
        assert math.isfinite(hankel_x0(K + 0.5))
        for nu in (K + 0.5 + 1e-9, -(K + 1.0), 30.0):
            assert hankel_x0(nu) == math.inf

    @pytest.mark.parametrize("nu", [Fraction(0), Fraction(1), Fraction(-3, 10), Fraction(7, 2),
                                    Fraction(25, 2), Fraction(12)])
    def test_coefficients_against_exact_product(self, nu):
        # a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k), DLMF 10.17.1
        got = specfun._hankel_coeffs(float(nu), K + 2)
        exact = Fraction(1)
        for k in range(K + 2):
            if k:
                exact *= (4 * nu * nu - (2 * k - 1) ** 2) / Fraction(8 * k)
            assert got[k] == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(ORDERS, st.lists(st.floats(1e-3, 4e6), min_size=1, max_size=40))
    def test_value_depends_on_the_point_only(self, nu, xs):
        # mixed arrays, split between the two paths, equal one-point calls
        xs = np.array(xs + [hankel_x0(nu)])
        whole = specfun.jv_array(nu, xs)
        singles = np.array([specfun.jv_array(nu, xs[i : i + 1])[0] for i in range(len(xs))])
        assert whole.tobytes() == singles.tobytes()
        assert all(bessel_j(nu, x) == v for x, v in zip(xs, whole))


#: deep_sum's five spec shapes: (k, orders, scales)
DEEP_SHAPES = [
    (0, (0.5, 1.5), (3 * math.pi / 16, 0.5 * (2 * math.pi - 3 * math.pi / 16))),
    (2, (0.0, 1.0, 2.0), (math.pi / 16, math.pi / 16, 0.7 * (2 * math.pi - math.pi / 8))),
    (-1, (-1.5, -1.0, 0.5, 0.0), (5 * math.pi / 16,) * 3 + (0.3 * (2 * math.pi - 15 * math.pi / 16),)),
    (0, (0.5,), (2.2,)),
    (1, (1.5, 1.5), (1.0, 0.6)),
]


@pytest.mark.parametrize("k, nus, scales", DEEP_SHAPES)
def test_sum_kernel_against_scipy_terms(k, nus, scales):
    # the blocked sum over 1e5 Hankel-kernel terms stays within the
    # 1e-14 * sum|terms| contract of an fsum of scipy.special.jv terms
    M = 10**5
    lam = math.fsum(nus) - 2 * k
    m = np.arange(1, M + 1, dtype=float)
    terms = m ** (-lam)
    for nu, a in zip(nus, scales):
        terms = terms * special.jv(nu, a * m)
    m0 = summation.sum_power_product(nus, scales, lam, 0)
    ref = math.fsum([m0, *terms])
    got = summation.sum_power_product(nus, scales, lam, M)
    assert abs(got - ref) <= 1e-14 * math.fsum(np.abs(terms))


@pytest.mark.parametrize("terms", [4097, 65537])
@pytest.mark.parametrize("k, nus, scales", DEEP_SHAPES)
def test_evaluate_sums_blocks_as_per_block_fsum(k, nus, scales, terms):
    # the wiring through evaluate: its plain partial sum is the per-block
    # fsum of the same terms, bit for bit (acceleration off, which would
    # replace the value of the conditional shapes)
    spec = make_spec(k, nus, scales)
    terms_1_to_m = identity.summand_terms(spec, np.arange(1, terms + 1))
    ref = per_block_fsum(identity.summand(spec, 0), terms_1_to_m)
    result = summation.evaluate(spec, terms=terms, accelerate=False)
    assert not result.rescaled
    assert result.value.hex() == ref.hex()


def ive(nu: float, x: float) -> float:
    return float(ive_array(nu, np.array([x]))[0])


class TestBesselI:
    """The modified Bessel function I_nu through its scaled form e^{-x} I_nu(x)."""

    def test_at_zero(self):
        assert ive(0.0, 0.0) == 1.0
        assert ive(2.0, 0.0) == 0.0

    def test_half_integer_closed_form(self):
        # e^{-x} I_{1/2}(x) = sqrt(2/(pi x)) e^{-x} sinh x
        expect = math.sqrt(2.0 / math.pi) * math.sinh(1.0) * math.exp(-1.0)
        assert ive(0.5, 1.0) == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx(0.937674888 * math.exp(-1.0), abs=1e-9)

    def test_negative_integer_symmetry(self):
        assert ive(-1.0, 2.5) == ive(1.0, 2.5)

    def test_scaled_variant_stays_finite(self):
        got = ive(0.0, 1000.0)
        # e^{-x} I_0(x) ~ 1/sqrt(2 pi x)
        assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1000.0), rel=1e-2)

    def test_against_arbitrary_precision(self):
        for nu, x in [(0.0, 3.0), (1.5, 0.4), (-1.5, 6.0), (4.0, 12.0)]:
            ref = float(mp.besseli(mp.mpf(nu), mp.mpf(x)) * mp.exp(-mp.mpf(x)))
            assert ive(nu, x) == pytest.approx(ref, rel=1e-12)


class TestSphericalJ:
    """j_ell(x) = sqrt(pi/(2x)) J_{ell+1/2}(x), checked against scipy's j_ell."""

    def test_ell_one_closed_form(self):
        expect = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
        got = math.sqrt(math.pi / 4.0) * bessel_j(1.5, 2.0)
        assert got == pytest.approx(expect, rel=1e-13)
        assert expect == pytest.approx(0.435397774, abs=1e-9)

    def test_consistency_with_half_integer_j(self):
        for ell in range(6):
            for x in np.geomspace(0.01, 100.0, 30):
                via_j = math.sqrt(math.pi / (2.0 * x)) * bessel_j(ell + 0.5, x)
                assert spherical_jn(ell, x) == pytest.approx(via_j, rel=1e-13)


def test_small_argument_coeff_negative_integer():
    # (-1)^n (a/2)^n / n! for negative integer order
    assert small_argument_coeff(-2.0, 1.0) == pytest.approx(0.125, rel=1e-15)
    assert small_argument_coeff(-1.0, 0.5) == pytest.approx(-0.25, rel=1e-15)


def test_small_argument_coeff_generic():
    assert small_argument_coeff(0.5, 2.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-14
    )


def test_small_argument_coeff_unchanged_below_overflow():
    # the direct formula is kept wherever Gamma and the power stay finite
    assert small_argument_coeff(170.5, 0.5) == 0.25**170.5 / math.gamma(171.5)
    assert small_argument_coeff(-170.0, 3.0) == 1.5**170 / math.factorial(170)


@pytest.mark.parametrize(
    "nu, a",
    [(200.5, 0.5), (180.5, 300.0), (-200.0, 300.0), (-201.0, 300.0), (-180.5, 6.0), (-181.5, 6.0)],
)
def test_small_argument_coeff_past_gamma_overflow(nu, a):
    # Gamma(nu+1) (or n!) overflows a double, or underflows to -+0 for
    # nu < -170; the ratio is formed in log space
    n = abs(nu) if nu == round(nu) and nu < 0 else nu
    ref = (mp.mpf(a) / 2) ** n / mp.gamma(n + 1)
    if nu == round(nu) and nu < 0 and int(n) % 2:
        ref = -ref
    assert small_argument_coeff(nu, a) == pytest.approx(float(ref), rel=1e-11, abs=1e-300)


def test_small_argument_coeff_beyond_float_range():
    with pytest.raises(DomainError, match="beyond the float range"):
        small_argument_coeff(200.0, 1e10)



def test_small_argument_coeff_log_gamma_overflow():
    # lgamma itself overflows for nu beyond about 1e305
    with pytest.raises(DomainError, match="beyond the float range"):
        small_argument_coeff(1e308, 1.0)


def test_small_argument_coeff_huge_negative_integer_is_prompt():
    # n! for n = 1e15 is never built: the log path gives (1/2)^n / n! = +0
    assert small_argument_coeff(-1e15, 1.0) == 0.0
