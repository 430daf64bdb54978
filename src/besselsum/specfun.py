"""Bessel functions J_nu and scaled I_nu for real order and x >= 0.

``jv_array`` is the one J_nu kernel.  Where x >= x0(nu) it sums the
large-argument Hankel expansion (DLMF 10.17.3) to _HANKEL_TERMS
coefficients; x0 depends on nu alone and is where the first neglected term
falls to eps/8 of the envelope sqrt(2/(pi x)).  Below x0, and for orders
beyond the DLMF 10.17(iii) remainder bound, it calls scipy.special.jv.  A
value depends on (nu, x) only, never on the array it arrives in.  I_nu is
backed by scipy.special.  The module also pins down the edge cases the rest
of the library relies on: exact reflection J_{-n} = (-1)^n J_n for integer
n, the x = 0 limits, and negative-integer detection (tolerance 1e-12,
matching what survives CLI text parsing).

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DivergentAtZero, DomainError

#: tolerance for taking an order as a negative integer, or as 0 in J_nu(0)
INTEGER_TOL = 1e-12

#: Hankel coefficients a_0 .. a_{K-1} summed by jv_array (K even)
_HANKEL_TERMS = 12
#: largest first neglected Hankel term, relative to the envelope
_HANKEL_TOL = np.finfo(float).eps / 8.0
#: ((2k-1)^2, 8k) for k = 1 .. 4K: a_k / a_{k-1} = (4 nu^2 - (2k-1)^2) / (8k)
_HANKEL_STEPS = tuple((float((2 * k - 1) ** 2), 8.0 * k) for k in range(1, 4 * _HANKEL_TERMS + 1))


def is_negative_integer(nu: float) -> bool:
    """Whether a real order lies within INTEGER_TOL of a negative integer."""
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu!r}")
    nearest = round(nu)
    return nearest < 0 and abs(nu - nearest) <= INTEGER_TOL


def bessel_j(nu, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for real nu, x >= 0.

    J_nu(0) is 1 for nu = 0, +0 for nu > 0 and for negative integer nu, and
    raises DivergentAtZero for negative non-integer nu.  For x > 0 the value
    is ``jv_array``'s, which reflects negative integer orders.
    """
    v = float(nu)
    x = float(x)
    if x < 0:
        raise DomainError(f"x must be non-negative, got {x}")
    if x == 0.0:
        if abs(v) <= INTEGER_TOL:
            return 1.0
        if is_negative_integer(v) or v > 0:
            return 0.0
        raise DivergentAtZero(f"J_nu(0) diverges for negative non-integer nu={v}")
    return float(jv_array(v, np.array([x]))[0])


def jv_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized J_nu over strictly positive x, reflecting negative integer
    orders: the Hankel expansion where x >= x0(nu), scipy.special.jv below."""
    v = float(nu)
    negate = False
    if is_negative_integer(v):
        n = -round(v)
        negate = n % 2 == 1
        v = float(n)
    x = np.asarray(x, dtype=float)
    coeffs = _hankel_coeffs(v, _HANKEL_TERMS + 1)
    big = x >= _hankel_x0(v, coeffs[-1])
    n_big = np.count_nonzero(big)
    if n_big == x.size:
        out = _hankel(v, coeffs[:-1], x)
    elif n_big == 0:
        out = _sp.jv(v, x)
    else:
        out = np.empty_like(x)
        out[big] = _hankel(v, coeffs[:-1], x[big])
        small = ~big
        out[small] = _sp.jv(v, x[small])
    return -out if negate else out


def _hankel_coeffs(nu: float, n: int) -> list[float]:
    """a_0(nu) .. a_{n-1}(nu) of the Hankel expansion (DLMF 10.17.1),
    a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k), for n <= 4K + 1."""
    mu = 4.0 * nu * nu
    out = [1.0]
    for odd_sq, eight_k in _HANKEL_STEPS[: n - 1]:
        out.append(out[-1] * (mu - odd_sq) / eight_k)
    return out


def _hankel_x0(nu: float, a_k: float) -> float:
    """Where jv_array switches to the Hankel expansion, given its first
    neglected coefficient a_K: the smallest x >= max(|nu|, 1) with
    |a_K| / x^K <= eps/8, or inf beyond the remainder bound.

    DLMF 10.17(iii) bounds the remainder of P (K/2 terms) by its first
    neglected term when K/2 >= |nu|/2 - 1/4, and that of Q when
    K/2 >= |nu|/2 - 3/4, so the expansion serves |nu| <= K + 1/2.  There
    Q's first neglected term |a_{K+1}| / x^{K+1} is at most 0.22 of P's at
    x >= x0, so the truncation stays below eps/4 of the envelope.  For
    half-integer nu a_K = 0: the series terminates.
    """
    if abs(nu) > _HANKEL_TERMS + 0.5:
        return math.inf
    x0 = (abs(a_k) / _HANKEL_TOL) ** (1.0 / _HANKEL_TERMS)
    while a_k and abs(a_k) / x0**_HANKEL_TERMS > _HANKEL_TOL:  # the root's rounding
        x0 = math.nextafter(x0, math.inf)
    return max(abs(nu), 1.0, x0)


def _hankel(nu: float, coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """sqrt(2/(pi x)) (P cos chi - Q sin chi) with chi = x - (nu/2 + 1/4) pi
    (DLMF 10.17.3): P = sum a_{2k} (-1/x^2)^k and Q = sum a_{2k+1}
    (-1/x^2)^k / x by Horner in -1/x^2, cos chi and sin chi by angle
    addition, because rounding x - (nu/2 + 1/4) pi would cost eps * x."""
    r = 1.0 / x
    w = -(r * r)
    p = _horner(coeffs[0::2], w)
    q = _horner(coeffs[1::2], w)
    q *= r
    phase = math.pi * (math.fmod(2.0 * nu + 1.0, 8.0) / 4.0)
    c_phi, s_phi = math.cos(phase), math.sin(phase)
    c, s = np.cos(x), np.sin(x)
    cos_chi = c * c_phi + s * s_phi
    sin_chi = s * c_phi - c * s_phi
    return np.sqrt((2.0 / math.pi) * r) * (p * cos_chi - q * sin_chi)


def _horner(coeffs: list[float], u: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] u^j, coeffs[0] first."""
    out = coeffs[-1] * u
    for c in coeffs[-2:0:-1]:
        out += c
        out *= u
    out += coeffs[0]
    return out


def ive_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized e^{-x} I_nu(x) over x >= 0, folding negative integer orders."""
    v = float(nu)
    if is_negative_integer(v):
        v = float(-round(v))
    return _sp.ive(v, x)


def small_argument_coeff(nu: float, a: float) -> float:
    """Leading coefficient of J_nu(a t) as t -> 0.

    (a/2)^nu / Gamma(nu+1) for nu not a negative integer, else
    (-1)^n (a/2)^n / n! with n = |nu| (the first surviving series term).
    Where the power or the Gamma function leaves the float range (Gamma
    underflows to +-0 below nu = -170) the ratio is formed in log space; a
    ratio or log-ratio beyond the float range raises DomainError.
    """
    v = float(nu)
    negint = is_negative_integer(v)
    if negint:
        v = float(-round(v))
    sign = -1.0 if negint and v % 2 else 1.0
    try:
        # n! > float max past n = 170: let gamma raise rather than build n!
        return sign * (a / 2.0) ** v / (
            math.factorial(int(v)) if negint and v <= 170 else math.gamma(v + 1.0)
        )
    except (OverflowError, ZeroDivisionError):
        if v < -1.0:  # Gamma(v+1) < 0 on alternate unit intervals; its zero keeps the sign
            sign = math.copysign(1.0, math.gamma(v + 1.0))
    try:
        return sign * math.exp(v * math.log(a / 2.0) - math.lgamma(v + 1.0))
    except OverflowError:  # from exp, or from lgamma for nu beyond about 1e305
        raise DomainError(
            f"small-argument coefficient of J_{nu:g}({a:g} t) or its log is beyond the float range"
        ) from None
