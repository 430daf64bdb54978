"""Bessel functions J_nu and scaled I_nu for real order and x >= 0.

Evaluation is backed by scipy.special; this module pins down the edge cases
the rest of the library relies on: exact reflection J_{-n} = (-1)^n J_n for
integer n, the x = 0 limits, and exact order classification (integer /
half-integer detection with tolerance 1e-12, matching what survives CLI text
parsing).

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special as _sp

from .errors import DivergentAtZero, DomainError

#: tolerance for classifying an order as integer or half-integer
INTEGER_TOL = 1e-12


class OrderKind(enum.Enum):
    NEGATIVE_INTEGER = "negative integer"
    NONNEGATIVE_INTEGER = "non-negative integer"
    HALF_INTEGER = "half-integer"
    GENERIC = "generic real"


def classify_order(nu: float) -> OrderKind:
    """Classify a real order, with tolerance INTEGER_TOL for the exact classes."""
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu!r}")
    nearest = round(nu)
    if abs(nu - nearest) <= INTEGER_TOL:
        return OrderKind.NEGATIVE_INTEGER if nearest < 0 else OrderKind.NONNEGATIVE_INTEGER
    if abs(nu - (math.floor(nu) + 0.5)) <= INTEGER_TOL:
        return OrderKind.HALF_INTEGER
    return OrderKind.GENERIC


def bessel_j(nu, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for real nu, x >= 0.

    Negative integer orders go through the reflection J_{-n} = (-1)^n J_n,
    exactly as computed.  J_nu(0) is 1 for nu = 0, 0 for nu > 0 (and for
    negative integer nu), and raises DivergentAtZero for negative
    non-integer nu.
    """
    v = float(nu)
    x = float(x)
    if x < 0:
        raise DomainError(f"x must be non-negative, got {x}")
    kind = classify_order(v)
    if kind is OrderKind.NEGATIVE_INTEGER:
        n = -round(v)
        sign = -1.0 if n % 2 else 1.0
        return sign * bessel_j(float(n), x)
    if x == 0.0:
        if kind is OrderKind.NONNEGATIVE_INTEGER and round(v) == 0:
            return 1.0
        if v > 0:
            return 0.0
        raise DivergentAtZero(f"J_nu(0) diverges for negative non-integer nu={v}")
    return float(_sp.jv(v, x))


def jv_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized J_nu over strictly positive x, reflecting negative integer orders."""
    v = float(nu)
    if classify_order(v) is OrderKind.NEGATIVE_INTEGER:
        n = -round(v)
        sign = -1.0 if n % 2 else 1.0
        return sign * _sp.jv(float(n), x)
    return _sp.jv(v, x)


def bessel_i_scaled(nu, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x)."""
    v = float(nu)
    x = float(x)
    if x < 0:
        raise DomainError(f"x must be non-negative, got {x}")
    if classify_order(v) is OrderKind.NEGATIVE_INTEGER:
        v = float(-round(v))
    return float(_sp.ive(v, x))


def ive_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized e^{-x} I_nu(x) over x > 0, folding negative integer orders."""
    v = float(nu)
    if classify_order(v) is OrderKind.NEGATIVE_INTEGER:
        v = float(-round(v))
    return _sp.ive(v, x)


def small_argument_coeff(nu: float, a: float) -> float:
    """Leading coefficient of J_nu(a t) as t -> 0.

    (a/2)^nu / Gamma(nu+1) for nu not a negative integer, else
    (-1)^n (a/2)^n / n! with n = |nu| (the first surviving series term).
    Where the power or the Gamma function leaves the float range (Gamma
    underflows to +-0 below nu = -170) the ratio is formed in log space; a
    ratio beyond the float range raises DomainError.
    """
    v = float(nu)
    negint = classify_order(v) is OrderKind.NEGATIVE_INTEGER
    if negint:
        v = float(-round(v))
    sign = -1.0 if negint and v % 2 else 1.0
    try:
        return sign * (a / 2.0) ** v / (math.factorial(int(v)) if negint else math.gamma(v + 1.0))
    except (OverflowError, ZeroDivisionError):
        log_c = v * math.log(a / 2.0) - math.lgamma(v + 1.0)
        if v < -1.0:  # Gamma(v+1) < 0 on alternate unit intervals; its zero keeps the sign
            sign = math.copysign(1.0, math.gamma(v + 1.0))
    try:
        return sign * math.exp(log_c)
    except OverflowError:
        raise DomainError(
            f"small-argument coefficient of J_{nu:g}({a:g} t) is e^{log_c:g}, "
            f"beyond the float range"
        ) from None
