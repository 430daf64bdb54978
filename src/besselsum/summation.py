"""Truncated evaluation of the discrete sum with a priori error bounds.

The terms are accumulated in ascending m, in fixed blocks of 4096: each
block's sum is correctly rounded, and ``math.fsum`` adds m0 and the block
sums.  A full block is summed in numpy by a TwoSum tree whose result is
verified to be the correctly rounded one; a block it cannot verify, and the
ragged last block, go to ``math.fsum``.  A correctly rounded sum is unique,
so the bits do not depend on which route a block took.  Conditionally
convergent specs get series acceleration: iterated pairwise averaging of the
partial sums, one averaging stage per aliased beat frequency of the scale
set.  Its error_bound is an estimate from the last averaging increments,
not a proven bound: it can fall short of the true error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import identity
from .errors import DomainError, InvalidSpec, SizeError, ToleranceUnreachable
from .identity import BesselProductSpec, ConvergenceClass, envelope_constant

#: fixed block size for deterministic blocked accumulation
BLOCK = 4096
#: full blocks summed together in numpy (16 x 4096 floats, 512 KiB)
SLAB = 16
#: cap on the terms of one partial sum (a 128 MiB term array)
MAX_TERMS = 2**24

#: applications of the averaging operator per beat frequency
_ACCEL_REPS = 3
#: beat frequencies slower than this trigger the heuristic 1/A guard in the bound
_SLOW_BEAT = 0.1


@dataclass(frozen=True)
class SummationResult:
    """Evaluated sum (prefactor included when rescaled) and its error bound."""

    value: float
    terms_used: int
    error_bound: float
    convergence_class: ConvergenceClass
    accelerated: bool
    rescaled: bool
    rescale_A: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "terms_used": self.terms_used,
            "error_bound": self.error_bound,
            "class": self.convergence_class.value,
            "accelerated": self.accelerated,
            "rescaled": self.rescaled,
            "A": self.rescale_A,
        }


def _require_valid(spec: BesselProductSpec) -> identity.ValidityReport:
    report = identity.check_validity(spec)
    if not report.valid:
        violated = [r.text for r in report.triggered_rules if r.violated]
        raise InvalidSpec("; ".join(violated) or "spec is invalid", report=report)
    return report


def _term_count(m_max) -> int:
    """The one check of a term count: InvalidSpec unless it is a non-negative
    integer, SizeError beyond MAX_TERMS; returned as a Python int."""
    if m_max > MAX_TERMS:
        raise SizeError(f"{m_max} terms requested, beyond the cap of {MAX_TERMS}")
    if not m_max >= 0:  # nan included
        raise InvalidSpec(f"terms must be non-negative, got {m_max}")
    if m_max != int(m_max):
        raise InvalidSpec(f"terms must be an integer, got {m_max}")
    return int(m_max)


def _terms(nus, scales, lam: float, m_max: int) -> np.ndarray:
    """Summand terms for m = 1..m_max, computed in ascending 4096-blocks."""
    m_max = _term_count(m_max)
    out = np.empty(m_max)
    for lo in range(1, m_max + 1, BLOCK):
        hi = min(lo + BLOCK - 1, m_max)
        block = np.arange(lo, hi + 1, dtype=float)
        out[lo - 1 : hi] = identity.power_product_array(nus, scales, lam, block)
    return out


def _slab_sums(rows: np.ndarray) -> list[float]:
    """The correctly rounded sum of each row of a (blocks, BLOCK) slab.

    A row is summed in numpy where the result can be verified and by
    ``math.fsum`` otherwise; both give the one correctly rounded value, so
    the bits are fsum's.  The rule, after Ogita, Rump & Oishi (SIAM J. Sci.
    Comput. 26, 2005):

    * A pairwise tree of TwoSums halves the row 12 times.  It yields the
      rounded sum s1 and the 4095 exact rounding errors e, so the row sums
      to exactly S = s1 + sum(e).  Their float sum is s2 and A is the float
      sum of |e|.
    * With u = 2^-53 and n = 4095, any order of float summation gives
      |s2 - sum(e)| <= g sum|e| and A >= (1 - g) sum|e|, where
      g = (n - 1) u / (1 - (n - 1) u) (Higham, Accuracy and Stability,
      section 4.2; an addition that underflows is exact).  So
      |s2 - sum(e)| <= g / (1 - g) A < 2^-41 A.  The code takes
      r = 4096 eps A = 2^-40 A, twice that.  Scaling by 2^-40 is exact
      unless it lands in the subnormal range, where it loses at most
      2^-1075: the factor two still covers that while A >= 2^-1034, and
      below, the e are multiples of 2^-1074 whose partial sums stay under
      2^-1021, so s2 is exact.
    * (hi, lo) = TwoSum(s1, s2) gives |S - hi| <= |lo| + r.  If
      fl(|lo| + r) is below half the smaller gap next to hi, S lies
      strictly nearer hi than any other float and rounds to hi.

    Ties: an exact half-way S never passes the strict test, so ties (and
    any S too close to call) go to ``math.fsum``, which rounds half to
    even.  So does a zero or subnormal hi: half its smaller gap, 2^-1075,
    rounds to 0, and fsum decides the sign of a zero.  A slab holding a
    value of magnitude 2^1000 or more (inf and nan included) is summed by
    ``math.fsum`` row by row, in order, so fsum raises its OverflowError
    and ValueError at the block where it always has; below that bound no
    partial sum of 4096 values, the tree's or fsum's, can overflow.
    """
    if not max(rows.max(), -rows.min()) < 2.0**1000:  # nan included
        return [math.fsum(row) for row in rows]
    s = rows
    width = BLOCK // 2
    err = np.zeros((len(rows), width))
    abs_err = np.zeros_like(err)
    while width:
        a, b = s[:, :width], s[:, width:]
        s = a + b
        z = s - a
        e = (a - (s - z)) + (b - z)
        err[:, :width] += e
        abs_err[:, :width] += np.abs(e)
        width //= 2
    s1, s2 = s[:, 0], err.sum(axis=1)
    r = abs_err.sum(axis=1) * 2.0**-40
    hi = s1 + s2
    z = hi - s1
    lo = (s1 - (hi - z)) + (s2 - z)
    gap = np.minimum(np.nextafter(hi, np.inf) - hi, hi - np.nextafter(hi, -np.inf))
    ok = np.abs(lo) + r < 0.5 * gap
    return [h if k else math.fsum(row) for h, k, row in zip(hi.tolist(), ok.tolist(), rows)]


def _blocked_sum(m0: float, vals: np.ndarray) -> float:
    """m0 plus the terms: each 4096-block correctly rounded, then fsum across.

    Full blocks go through ``_slab_sums`` a slab of SLAB blocks (512 KiB)
    at a time, so the working set stays the same at any length.  The ragged
    last block and the final sum across ``[m0] + block sums`` use
    ``math.fsum``, so fewer than 4096 terms run fsum alone.
    """
    if len(vals) == 0:
        return m0  # fsum([m0]) would turn -0.0 into 0.0
    full = len(vals) - len(vals) % BLOCK
    block_sums = []
    for lo in range(0, full, SLAB * BLOCK):
        block_sums += _slab_sums(vals[lo : min(lo + SLAB * BLOCK, full)].reshape(-1, BLOCK))
    if full < len(vals):
        block_sums.append(math.fsum(vals[full:]))
    return math.fsum([m0] + block_sums)


def sum_power_product(nus, scales, lam: float, terms: int) -> float:
    """Partial sum over m = 0..terms of eps_m m^(-lam) prod_j J_{nu_j}(a_j m).

    The one partial-sum kernel, for general lam (the spec type pins
    lam = sum(nu) - 2k).  The m = 0 term is the half-weight t -> 0 limit,
    which must exist.  Uses exact (correctly rounded) fsum within and across
    blocks, so the round-off is far below the 1e-14 * sum|terms| contract.
    """
    nus = tuple(float(v) for v in nus)
    scales = tuple(float(a) for a in scales)
    m0 = 0.5 * identity.power_product_zero_limit(nus, scales, lam)
    return _blocked_sum(m0, _terms(nus, scales, lam, terms))


def sum_truncated(spec: BesselProductSpec, terms: int) -> float:
    """Partial sum over m = 0..terms of a valid spec, in ascending order."""
    _require_valid(spec)
    return sum_power_product(spec.nus, spec.scales, spec.lam, terms)


def _analyse(spec: BesselProductSpec):
    """(report, aliased, C, q) of a valid spec, else InvalidSpec.

    The validity report, the aliased beat frequencies (enumerated for the
    conditional class only, () otherwise) and the truncation bound
    C * M^(-q) described in ``truncation_bound``.
    """
    report = _require_valid(spec)
    p = spec.lam + spec.n_factors / 2.0
    c = envelope_constant(spec)
    if report.convergence_class is ConvergenceClass.ABSOLUTE:
        return report, (), c * max(1.0, 1.0 / abs(1.0 - p)), p - 1.0
    aliased = identity.aliased_beat_frequencies(spec.scales)
    if aliased and min(aliased) < _SLOW_BEAT:
        c /= min(aliased)
    return report, aliased, c, p


def _required(c: float, q: float, tol: float) -> int:
    """Smallest M >= 10 with c * M^(-q) <= tol (ties rounded up)."""
    if not tol > 0:  # nan included
        raise InvalidSpec(f"tol must be positive, got {tol}")
    m = identity.envelope_reach(c, q, tol, 1e15)
    return 10**15 + 1 if m == math.inf else max(10, math.ceil(m))


def truncation_bound(spec: BesselProductSpec, terms: int) -> float:
    """A priori bound on |S_infinity - S_terms| from the envelope analysis.

    Absolute class:  C * M^(1-p) with C = envelope * max(1, 1/|1-p|);
    conditional class:  C * M^(-p) with C = envelope, where p = lam + N/2.
    A heuristic 1/A guard enters C when the slowest aliased beat frequency A
    is below 0.1 (slow beats shrink the alternation the bound relies on).
    """
    _, _, c, q = _analyse(spec)
    if terms < 10:
        raise InvalidSpec(f"truncation_bound requires terms >= 10, got {terms}")
    return c * float(terms) ** (-q)


def required_terms(spec: BesselProductSpec, tol: float) -> int:
    """Smallest M >= 10 whose truncation bound is <= tol (ties rounded up)."""
    _, _, c, q = _analyse(spec)
    return _required(c, q, tol)


def _accelerate(partial: np.ndarray, aliased) -> tuple[float, float] | None:
    """Iterated pairwise averaging of the tail of the partial-sum sequence.

    partial[i] holds S_{i+1}; the tail beyond len/2 is filtered by the
    shift-h averaging operator u -> (u_m + u_{m+h})/2 with h = round(pi/A)
    for each aliased beat frequency A in ``aliased`` (three passes each),
    then a short plain cascade.  Returns (value, error estimate) or None when the tail
    is too short to filter.
    """
    m_max = len(partial)
    u = partial[m_max // 2 :].copy()
    if len(u) < 8:
        return None
    increments = []
    for w in aliased:
        h = max(1, int(round(math.pi / w)))
        for _ in range(_ACCEL_REPS):
            if len(u) <= h + 2:
                break
            prev = u[-1]
            u = 0.5 * (u[:-h] + u[h:])
            increments.append(abs(u[-1] - prev))
    depth = min(len(u) - 1, 12)
    for _ in range(depth):
        prev = u[-1]
        u = 0.5 * (u[:-1] + u[1:])
        increments.append(abs(u[-1] - prev))
    if not increments:
        return None
    value = float(u[-1])
    spread = float(np.max(np.abs(u[-min(len(u), 50) :] - value))) if len(u) > 1 else 0.0
    err = max(increments[-1], spread) + 1e-15 * abs(value)
    return value, err


def evaluate(
    spec: BesselProductSpec,
    *,
    terms: int | None = None,
    tol: float | None = None,
    m_max: int = 10**6,
    accelerate: bool = True,
) -> SummationResult:
    """Evaluate the sum side of the identity for a spec.

    Exactly one of ``terms`` (fixed truncation M) or ``tol`` (target error
    bound, M chosen by inverting the truncation bound, capped at ``m_max``)
    must be given; ``m_max`` must be a non-negative integer, and may exceed
    MAX_TERMS, which caps the terms actually summed.  Specs with sum of scales beyond 2*pi are rescaled first
    and the result carries the prefactor A^(sum(nu)-1-2k).  Conditional-class
    specs are accelerated unless disabled or the averaged second half of the
    partial sums starts before a factor's turning point; the error bound is
    then the last averaging increment instead of the a priori power law.  A
    fixed truncation below 10 terms reports error_bound = inf: no bound
    available.  A sum that is not a finite float raises DomainError.
    """
    if (terms is None) == (tol is None):
        raise InvalidSpec("exactly one of terms= or tol= must be given")
    if not (0 <= m_max < math.inf and m_max == int(m_max)):  # nan included
        raise InvalidSpec(f"m_max must be a non-negative integer, got {m_max}")
    work, prefactor, A = identity.rescale(spec)
    report, aliased, c, q = _analyse(work)
    conditional = report.convergence_class is ConvergenceClass.CONDITIONAL

    m_used = terms
    if terms is None:
        m_used = _required(c, q, tol / abs(prefactor))
        if m_used > m_max:
            if not (conditional and accelerate):
                raise ToleranceUnreachable(
                    f"tol {tol:g} needs ~{m_used} terms, beyond m_max={m_max}"
                )
            m_used = m_max

    m0 = identity.summand(work, 0)
    vals = _terms(work.nus, work.scales, work.lam, m_used)
    m_used = len(vals)  # a Python int, whatever number type terms was
    value, err = _blocked_sum(m0, vals), None
    accelerated = False
    # the averaged half must start past every factor's turning point a m = max(1, |nu|)
    past_turning = (m_used // 2) * min(work.scales) >= max(1.0, max(map(abs, work.nus)))
    if conditional and accelerate and m_used >= 64 and past_turning:
        acc = _accelerate(m0 + np.cumsum(vals), aliased)
        if acc is not None:
            value, err = acc
            accelerated = True
    if err is None:
        # the envelope analysis starts at 10 terms; below that there is no bound
        err = c * float(m_used) ** (-q) if m_used >= 10 else math.inf

    if not math.isfinite(prefactor * value):
        raise DomainError(f"the sum is {prefactor * value}: its terms leave the float range")
    if tol is not None and err * abs(prefactor) > tol:
        raise ToleranceUnreachable(
            f"achieved error bound {err * abs(prefactor):g} exceeds tol {tol:g} "
            f"at m_max={m_max}"
        )
    return SummationResult(
        value=prefactor * value,
        terms_used=m_used,
        error_bound=abs(prefactor) * err,
        convergence_class=report.convergence_class,
        accelerated=accelerated,
        rescaled=A != 1.0,
        rescale_A=A,
    )

