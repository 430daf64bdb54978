"""Independent oracles for the sum identity.

``integrate`` evaluates the integral side directly with panel Gauss-Legendre
quadrature, panel width pinned below half the shortest total-oscillation
period.  ``correction_term`` numerically evaluates the contour correction of
the underlying summation theorem (it must vanish for every representable
spec, and closes the sum-integral gap for generalized odd-parity inputs).
``band_limit_check`` measures the spectral energy of the integrand beyond
its analytic bandwidth sum(a)/(2*pi).

These oracles import nothing from the summation module: plain truncation
plus the envelope tail bound of ``identity``, never series acceleration.
Their rules are fixed module constants, not settings: 16-node panels with
an 8-node pass for the error estimate, 35 clustered 32-node panels up to
y = 20 for the correction, and 8192 samples at pi/(2 sum a) with a 5 %
guard band for the band-limit check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import identity, specfun
from .errors import ConfigError, DampingError, DomainError, InvalidSpec, SizeError
from .identity import TWO_PI, BesselProductSpec

#: most panels one quadrature may allocate
MAX_PANELS = 2**20
#: Gauss-Legendre nodes per panel of the integrals, and of the node-halving
#: pass whose difference is their error estimate
_NODES, _COARSE_NODES = 16, 8
#: the correction integral runs over (0, _Y_MAX] on _CORRECTION_PANELS panels
#: clustered quadratically toward y = 0, _CORRECTION_NODES nodes each
_Y_MAX, _CORRECTION_PANELS, _CORRECTION_NODES = 20.0, 35, 32
#: band-limit samples, and the guard band beyond sum(a)/(2*pi)
_BAND_SAMPLES, _BAND_GUARD = 8192, 0.05

#: Gauss-Legendre (nodes, weights) for the three node counts above
_GAUSS = {
    n: np.polynomial.legendre.leggauss(n) for n in (_COARSE_NODES, _NODES, _CORRECTION_NODES)
}


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    panels: int
    t_max: float
    error_estimate: float
    #: True when lam + N/2 <= 1: the envelope tail bound diverges and the
    #: reported error_estimate carries no tail contribution
    tail_flagged: bool = False


def _require_integrable(spec: BesselProductSpec) -> None:
    ok, reason = identity.integrand_conditions_ok(spec)
    if not ok:
        raise InvalidSpec(f"integral does not exist: {reason}")


def _panel_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, half-widths): the Gauss-Legendre points of the panels between
    consecutive edges, panel by panel, and each panel's half-width."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _GAUSS[nodes][0][None, :]).ravel(), half


def _panel_sum(vals: np.ndarray, half: np.ndarray, nodes: int) -> float:
    """Gauss-Legendre value from the integrand at ``_panel_nodes``' points,
    panel results reduced in ascending order."""
    w = _GAUSS[nodes][1]
    return math.fsum((vals.reshape(len(half), nodes) * w[None, :]).sum(axis=1) * half)


def _panel_quad(fun, edges: np.ndarray, nodes: int) -> float:
    """Fixed-order Gauss-Legendre of `fun` on the panels between consecutive edges."""
    ts, half = _panel_nodes(edges, nodes)
    return _panel_sum(fun(ts), half, nodes)


def _equal_panels(t_max, scales) -> np.ndarray:
    """Edges of equal panels over [0, t_max] of width at most pi/sum(scales).
    A bad t_max raises ConfigError, and a grid of more than MAX_PANELS
    panels SizeError, before anything is built."""
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ConfigError(f"t_max must be positive and finite, got {t_max}")
    t_max = float(t_max)
    panels = t_max / (math.pi / math.fsum(scales))
    if panels > MAX_PANELS:
        raise SizeError(
            f"t_max = {t_max:g} needs {panels:.4g} quadrature panels, "
            f"beyond the cap of {MAX_PANELS}"
        )
    return np.linspace(0.0, t_max, max(1, math.ceil(panels)) + 1)


def _fine_coarse(fun, edges: np.ndarray) -> tuple[float, float]:
    """(16-node value, its distance from the 8-node value) over the panels."""
    value = _panel_quad(fun, edges, _NODES)
    return value, abs(value - _panel_quad(fun, edges, _COARSE_NODES))


def tail_bound(spec: BesselProductSpec, t_max: float) -> tuple[float, bool]:
    """Envelope bound on the discarded tail beyond t_max.

    integral_{t_max}^inf C_env t^(-p) dt = C_env/(p-1) * t_max^(1-p) for
    p = lam + N/2 > 1.  For p <= 1 the envelope tail diverges and the bound
    is reported as zero with the flagged bit set.
    """
    p = spec.lam + spec.n_factors / 2.0
    if p <= 1.0:
        return 0.0, True
    return identity.envelope_constant(spec) / (p - 1.0) * t_max ** (1.0 - p), False


def t_max_for_tail(spec: BesselProductSpec, tail_tol: float, cap: float = 2e4) -> float:
    """Truncation point whose tail bound is <= tail_tol, capped at `cap`.

    For p <= 1 (flagged zero tail bound) the cap is returned directly.
    """
    p = spec.lam + spec.n_factors / 2.0
    if p <= 1.0:
        return cap
    c = identity.envelope_constant(spec) / (p - 1.0)
    return float(min(max(identity.envelope_reach(c, p - 1.0, tail_tol, cap), 50.0), cap))


def integrate(spec: BesselProductSpec, t_max: float) -> QuadratureResult:
    """Direct quadrature of the integral side over [0, t_max].

    Panels of width pi/sum(a) (half the shortest period of the total
    oscillation), 16 Gauss-Legendre nodes per panel, ascending
    summation.  error_estimate is the distance from the 8-node value plus
    the envelope tail bound.

    Unlike the sum, the integral needs no scale budget: specs with
    sum(a) > 2*pi are integrable as long as the t -> 0 limit exists and
    lam > -N/2 (strict form with a zero beat).
    """
    edges = _equal_panels(t_max, spec.scales)
    _require_integrable(spec)
    value, diff = _fine_coarse(lambda ts: identity.integrand_array(spec, ts), edges)
    tail, flagged = tail_bound(spec, float(t_max))
    return QuadratureResult(
        value=value,
        panels=len(edges) - 1,
        t_max=float(t_max),
        error_estimate=diff + tail,
        tail_flagged=flagged,
    )


def integrate_power_product(nus, scales, lam: float, t_max: float) -> tuple[float, float]:
    """Quadrature of t^(-lam) prod J_{nu_j}(a_j t) for general lam.

    Returns (value, node-halving difference) from the panels and rules of
    ``integrate``, which also checks t_max the same way.  Used by the
    odd-parity closure checks; the t -> 0 limit must exist.
    """
    edges = _equal_panels(t_max, scales)
    return _fine_coarse(lambda ts: identity.power_product_array(nus, scales, lam, ts), edges)


def correction_term(spec: BesselProductSpec) -> float:
    """Numerical value of the summation-theorem correction integral.

    Requires net exponential damping, i.e. sum(a) below the 2*pi budget
    (``identity.scale_budget``), else DampingError; an integral that is not
    a finite float raises DomainError.  For every representable spec the
    parity sum(nu) - lam = 2k is even and the value must vanish (to roundoff
    of the parity sine); a nonzero value flags a broken phase convention.
    """
    _require_integrable(spec)
    return correction_term_power_product(spec.nus, spec.scales, spec.lam)


def correction_term_power_product(nus, scales, lam: float) -> float:
    """Correction integral for general lam (odd-parity closure checks).

    i * [f(iy) - f(-iy)] collapses on the principal branch to
    -2 sin(pi q / 2) y^(-lam) prod I_{nu_j}(a_j y) with q = sum(nu) - lam;
    the parity factor is computed numerically, so the even-parity vanishing
    is observed, not assumed.  I-products are evaluated in scaled form
    (ive carries e^(-a y)) so only the net damped exponential
    e^((sum a - 2 pi) y) is ever formed.  The integral is truncated at
    y = 20 and taken on 35 panels of 32 nodes, clustered toward y = 0
    where the integrand varies.
    """
    nus, scales, lam = tuple(map(float, nus)), tuple(map(float, scales)), float(lam)
    sum_a = math.fsum(scales)
    if identity.scale_budget(sum_a) >= 0:
        raise DampingError(
            f"sum of scales {sum_a:.6g} must be < 2*pi for the "
            f"correction integrand to damp"
        )
    parity = math.sin(math.pi * (math.fsum(nus) - lam) / 2.0)
    damp = sum_a - TWO_PI

    def g(y: np.ndarray) -> np.ndarray:
        out = y ** (-lam) if lam != 0 else np.ones_like(y)
        for nu, a in zip(nus, scales):
            out = out * specfun.ive_array(nu, a * y)
        return out * np.exp(damp * y) / (1.0 - np.exp(-TWO_PI * y))

    u = np.linspace(0.0, 1.0, _CORRECTION_PANELS + 1)
    edges = _Y_MAX * u * u
    edges[0] = 1e-12
    value = _panel_quad(g, edges, _CORRECTION_NODES)
    if not math.isfinite(value):
        raise DomainError(f"correction integral is {value}: its integrand leaves the float range")
    # 0.0 - x, not -x: with parity = sin(0) = +0.0 the value reads 0, not -0
    return 0.0 - 2.0 * parity * value


def band_limit_check(spec: BesselProductSpec) -> float:
    """Fraction of windowed spectral energy beyond the analytic bandwidth.

    The integrand extended evenly is sampled on a centered grid of 8192
    points spaced pi/(2 sum a), which puts the Nyquist frequency at twice
    the band edge, windowed with a Kaiser window of beta = 19 (peak sidelobe
    -147.5 dB), and Fourier analyzed.  Returns the energy fraction at
    |frequency| above sum(a)/(2*pi) * 1.05, a 5 % guard band; valid specs
    with sum(a) < 2*pi stay below 1e-6 by a wide margin.
    """
    _require_integrable(spec)
    sum_a = spec.sum_scales
    n, dt = _BAND_SAMPLES, math.pi / (2.0 * sum_a)
    cutoff = sum_a / TWO_PI * (1.0 + _BAND_GUARD)
    t = (np.arange(n) - n // 2) * dt
    x = np.empty(n)
    nonzero = t != 0.0
    x[nonzero] = identity.integrand_array(spec, np.abs(t[nonzero]))
    x[~nonzero] = identity.zero_limit(spec)
    power = np.abs(np.fft.fft(x * np.kaiser(n, 19.0))) ** 2
    freqs = np.fft.fftfreq(n, dt)
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    return float(power[np.abs(freqs) > cutoff].sum() / total)
