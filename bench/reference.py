"""Independent references used to check the program's outputs.

Nothing here calls into ``besselsum`` except :func:`quadrature_oracle`, which
is the program's own quadrature used the way ``besselsum compare`` uses it.
Everything else is written from the formulas with scipy:

* the validity rules R1-R4 of the integral-to-sum identity;
* closed forms for one factor (DLMF 10.22.43) and two factors
  (Weber-Schafheitlin, DLMF 10.22.56);
* the truncated sum sampled at integers;
* adaptive quadrature on a finite interval.

A spec is a plain tuple ``(k, nus, scales)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

TWO_PI = 2.0 * math.pi
_TOL = 1e-12


def _neg_int(nu: float) -> bool:
    return abs(nu - round(nu)) <= _TOL and round(nu) < 0


def _reflect(nu: float) -> tuple[float, float]:
    """(order, sign) with J_{-n} = (-1)^n J_n folded in."""
    if _neg_int(nu):
        n = -round(nu)
        return float(n), (-1.0 if n % 2 else 1.0)
    return float(nu), 1.0


def has_zero_beat(scales) -> bool:
    """Some sign vector s gives sum s_j a_j = 0 (brute force over 2^(N-1) signs)."""
    a = np.asarray(scales, dtype=float)
    n = len(a)
    if n < 2:
        return False
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)[None, :]) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    return bool(np.min(np.abs(signs @ a)) <= _TOL * a.sum())


def analyse(k: int, nus, scales, rescale: bool = True) -> dict:
    """Validity and convergence class of the sum.

    With ``rescale`` a sum of scales beyond 2*pi is first mapped onto the
    2*pi boundary (as ``evaluate`` does); without it, it violates R2 (as
    ``validate`` reports).  Returns ``valid``, ``klass`` ("absolute" /
    "conditional" / "invalid"), ``rescaled`` and ``p = sum(nu) - 2k + N/2``.
    """
    n = len(nus)
    sum_nu = math.fsum(nus)
    sum_a = math.fsum(scales)
    beyond = sum_a > TWO_PI * (1.0 + _TOL)
    on_boundary = beyond or abs(sum_a - TWO_PI) <= _TOL * TWO_PI
    k_min = -math.fsum(abs(v) for v in nus if _neg_int(v))
    strict = 2.0 * k - n / 2.0 + 1.0
    valid = k >= k_min and sum_nu > 2.0 * k - n / 2.0 and (rescale or not beyond)
    if valid and (on_boundary or has_zero_beat(scales)):
        valid = sum_nu > strict
    klass = "invalid" if not valid else ("absolute" if sum_nu > strict else "conditional")
    return {"valid": valid, "klass": klass, "rescaled": beyond and rescale,
            "p": sum_nu - 2.0 * k + n / 2.0}


def closed_form(k: int, nus, scales) -> float | None:
    """The integral in closed form for N = 1 or 2 factors, else None.

    N = 1: int t^mu J_n(a t) dt = 2^mu a^(-mu-1) G((n+mu+1)/2) / G((n-mu+1)/2)
    for -n-1 < mu < 1/2 (DLMF 10.22.43), with mu = 2k - nu.
    N = 2: DLMF 10.22.56 for int t^-lam J_mu(a t) J_nu(b t) dt, 0 < b < a,
    mu + nu + 1 > lam > -1, with lam = sum(nu) - 2k.
    Negative integer orders are reflected first.
    """
    if len(nus) == 1:
        order, sign = _reflect(nus[0])
        mu = 2.0 * k - nus[0]
        a = float(scales[0])
        if not (-order - 1.0 < mu < 0.5):
            return None
        return float(sign * 2.0**mu * a ** (-mu - 1.0)
                     * special.gamma(0.5 * (order + mu + 1.0))
                     * special.rgamma(0.5 * (order - mu + 1.0)))
    if len(nus) == 2:
        lam = math.fsum(nus) - 2.0 * k
        (o1, s1), (o2, s2) = _reflect(nus[0]), _reflect(nus[1])
        (mu, a), (nu, b) = sorted(((o1, scales[0]), (o2, scales[1])), key=lambda f: -f[1])
        if not (b < a * (1.0 - 1e-9) and mu + nu + 1.0 > lam > -1.0):
            return None
        z = (b / a) ** 2
        return float(s1 * s2 * b**nu / (2.0**lam * a ** (nu - lam + 1.0))
                     * special.gamma(0.5 * (nu + mu - lam + 1.0))
                     * special.rgamma(0.5 * (mu - nu + lam + 1.0))
                     * special.rgamma(nu + 1.0)
                     * special.hyp2f1(0.5 * (nu + mu - lam + 1.0),
                                      0.5 * (nu - mu - lam + 1.0), nu + 1.0, z))
    return None


def _zero_term(k: int, nus, scales) -> float:
    """Half-weight t -> 0 limit of the integrand (the m = 0 term)."""
    e = 2.0 * k + math.fsum(abs(v) - v for v in nus if _neg_int(v))
    if e > _TOL:
        return 0.0
    out = 0.5
    for v, a in zip(nus, scales):
        order, sign = _reflect(v)
        out *= sign * (a / 2.0) ** order / special.gamma(order + 1.0)
    return out


def integrand(k: int, nus, scales, t: np.ndarray) -> np.ndarray:
    """t^{2k} prod_j t^{-nu_j} J_{nu_j}(a_j t) for t > 0."""
    t = np.asarray(t, dtype=float)
    out = t ** (2.0 * k - math.fsum(nus))
    for v, a in zip(nus, scales):
        out = out * special.jv(v, a * t)
    return out


def direct_sum(k: int, nus, scales, terms: int) -> tuple[float, float]:
    """(sum over m = 0..terms, sum of |terms|) computed term by term."""
    vals = integrand(k, nus, scales, np.arange(1, terms + 1, dtype=float))
    m0 = _zero_term(k, nus, scales)
    return math.fsum([m0, *vals]), abs(m0) + float(np.abs(vals).sum())


def finite_integrals(k: int, nus, scale_rows, t_max: float) -> np.ndarray:
    """Integrals over [0, t_max] of one (k, nus) family at many scale rows.

    scipy ``quad_vec`` (adaptive Gauss-Kronrod on a vector-valued integrand)
    integrates all rows at once; row i uses the scales ``scale_rows[i]``.
    """
    rows = np.asarray(scale_rows, dtype=float)
    power = 2.0 * k - math.fsum(nus)

    def f(t):
        t = max(t, 1e-300)
        out = np.full(len(rows), t**power)
        for j, v in enumerate(nus):
            out *= special.jv(v, rows[:, j] * t)
        return out

    value, _err = integrate.quad_vec(f, 0.0, t_max, epsabs=1e-13, epsrel=1e-12, limit=4000)
    return np.asarray(value, dtype=float)


def quadrature_oracle(bs, spec):
    """The program's quadrature oracle as ``besselsum compare`` runs it.

    Returns ``(value, error_estimate)`` or None when the oracle cannot
    certify anything because its tail bound is flagged (p <= 1).
    """
    q = bs.quadrature.integrate(spec, bs.quadrature.t_max_for_tail(spec, 1e-6))
    if q.tail_flagged:
        return None
    return q.value, q.error_estimate
