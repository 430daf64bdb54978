"""Problem specification and validity analysis for the Bessel-product identity.

A problem instance is the integral

    integral_0^inf t^{2k} prod_j [ t^{-nu_j} J_{nu_j}(a_j t) ] dt

which, under the validity conditions checked here, equals the discrete sum
of the same expression sampled at integers m with the m = 0 term taken at
half weight.  This module owns the spec type, the condition checker, beat
(zero-frequency) detection, the rescaling transform for sum-of-scales above
2*pi, and the summand/integrand evaluators including their t -> 0 limit.

All operations are pure functions over immutable specs.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DomainError, InvalidSpec, SizeError

TWO_PI = 2.0 * math.pi

#: relative tolerance for detecting the sum-of-scales boundary at 2*pi
BOUNDARY_RTOL = 1e-12
#: relative tolerance (times sum of scales) for a zero beat frequency
BEAT_RTOL = 1e-12
#: cap on the 2^(N-1) signed sums of the beat table, so N <= 20
MAX_SIGNED_SUMS = 2**19


@dataclass(frozen=True)
class Factor:
    """One Bessel factor J_nu(a t): order nu and positive scale a."""

    nu: float
    a: float


@dataclass(frozen=True)
class BesselProductSpec:
    """Full problem instance: exponent parameter k and the ordered factors."""

    k: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        try:
            k = int(self.k)
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            k = None
        if k is None or k != self.k:
            raise InvalidSpec(f"k must be an integer, got {self.k!r}")
        object.__setattr__(self, "k", k)
        factors = tuple(
            f if isinstance(f, Factor) else Factor(float(f[0]), float(f[1]))
            for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if len(factors) < 1:
            raise InvalidSpec("at least one factor is required")
        for i, f in enumerate(factors):
            if not math.isfinite(f.nu):
                raise InvalidSpec(f"factor {i}: order must be finite, got {f.nu!r}")
            if not (math.isfinite(f.a) and f.a > 0):
                raise InvalidSpec(f"factor {i}: scale must be positive, got {f.a!r}")
        try:  # fsum and float(k) raise OverflowError; lam = sum(nu) - 2k may round to inf
            in_range = math.isfinite(self.sum_scales) and math.isfinite(self.zero_exponent())
        except OverflowError:
            in_range = False
        if not in_range:  # the t -> 0 exponent is finite only if lam is
            raise InvalidSpec("sum(a), sum(nu), 2k and the t -> 0 exponent must be finite floats")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def nus(self) -> tuple[float, ...]:
        return tuple(f.nu for f in self.factors)

    @property
    def scales(self) -> tuple[float, ...]:
        return tuple(f.a for f in self.factors)

    @property
    def sum_nu(self) -> float:
        return math.fsum(self.nus)

    @property
    def sum_scales(self) -> float:
        return math.fsum(self.scales)

    @property
    def lam(self) -> float:
        """Power-law exponent of the integrand, sum(nu) - 2k.  Always derived."""
        return self.sum_nu - 2.0 * self.k

    def negative_integer_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if specfun.is_negative_integer(f.nu))

    def zero_exponent(self) -> float:
        """Net power of t in the integrand as t -> 0.

        Equals 2k + sum over negative-integer orders of (|nu| - nu); the
        t -> 0 limit exists iff this is >= 0 and is nonzero only at 0.
        """
        return _zero_exponent(self.nus, self.lam)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "factors": [{"nu": f.nu, "a": f.a} for f in self.factors],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BesselProductSpec":
        return cls(
            k=obj["k"],
            factors=tuple(Factor(float(f["nu"]), float(f["a"])) for f in obj["factors"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "BesselProductSpec":
        return cls.from_dict(json.loads(text))


def make_spec(k: int, nus, scales) -> BesselProductSpec:
    """Convenience constructor from parallel order/scale sequences."""
    nus = tuple(float(v) for v in nus)
    scales = tuple(float(a) for a in scales)
    if len(nus) != len(scales):
        raise InvalidSpec(
            f"got {len(nus)} orders but {len(scales)} scales; lengths must match"
        )
    return BesselProductSpec(k=k, factors=tuple(Factor(n, a) for n, a in zip(nus, scales)))


class ConvergenceClass(str, enum.Enum):
    ABSOLUTE = "absolute"
    CONDITIONAL = "conditional"
    INVALID = "invalid"


@dataclass(frozen=True)
class Rule:
    ident: str
    text: str
    violated: bool = False


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the validity-condition checker."""

    valid: bool
    convergence_class: ConvergenceClass
    needs_rescale: bool
    beat_witness: tuple[int, ...] | None
    negative_integer_set: tuple[int, ...]
    triggered_rules: tuple[Rule, ...] = field(default_factory=tuple)

    def integrand_conditions(self) -> tuple[bool, str]:
        """(ok, reasons) for the integral alone: the violated rules less R2
        (the 2*pi budget) and, without a zero beat, R4 (the 2*pi boundary,
        where the sampling, not the integrand, needs it)."""
        sum_only = ("R2",) if self.beat_witness is not None else ("R2", "R4")
        reasons = [r.text for r in self.triggered_rules if r.violated and r.ident not in sum_only]
        return not reasons, "; ".join(reasons)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "class": self.convergence_class.value,
            "needs_rescale": self.needs_rescale,
            "beat_witness": list(self.beat_witness) if self.beat_witness else None,
            "negative_integer_set": list(self.negative_integer_set),
            "rules": [
                {"id": r.ident, "text": r.text, "violated": r.violated}
                for r in self.triggered_rules
            ],
        }


def scale_budget(sum_a: float) -> int:
    """Where a sum of scales sits against the 2*pi budget: -1 below it, 0 on
    it (within BOUNDARY_RTOL), +1 beyond it."""
    if abs(sum_a - TWO_PI) <= BOUNDARY_RTOL * TWO_PI:
        return 0
    return 1 if sum_a > TWO_PI else -1


def _signed_sums(scales) -> tuple[list[float], float]:
    """All sums sum_j s_j a_j with s_0 = +1, and the zero-beat tolerance.

    The 2^(N-1) sums come in itertools.product order over s_1..s_{N-1} in
    (+1, -1): bit N-1-j of an index is set where s_j = -1.  Each is formed
    exactly, from the scales as integers times a common power of two, and
    rounded to float once, so it equals fsum's correctly rounded value.
    """
    ratios = [float(x).as_integer_ratio() for x in scales]
    count = 1 << (len(ratios) - 1)
    if count > MAX_SIGNED_SUMS:
        raise SizeError(f"N = {len(ratios)} factors give {count} signed sums, beyond the cap "
                        f"of {MAX_SIGNED_SUMS} (N <= {MAX_SIGNED_SUMS.bit_length()})")
    den = max([d for _, d in ratios])  # a power of two
    ints = [num * (den // d) for num, d in ratios]
    sums = ints[:1]
    for aj in ints[1:]:
        sums = [t + d for t in sums for d in (aj, -aj)]
    total = sum(map(abs, ints))  # sum |a_j|, rounded once as fsum would
    # int / int true division is correctly rounded, subnormal results included
    return [s / den for s in sums], BEAT_RTOL * (total / den)


def beat_exists(scales) -> tuple[int, ...] | None:
    """Search for a sign vector s in {+-1}^N with sum s_j a_j = 0.

    Scans the 2^(N-1) patterns with s_0 = +1 (negating a witness gives
    another witness).  Returns the first witness found, or None.
    """
    sums, tol = _signed_sums(scales)
    n = len(sums).bit_length()
    for i, v in enumerate(sums):
        if abs(v) <= tol:
            return (1,) + tuple(-1 if i >> (n - 1 - j) & 1 else 1 for j in range(1, n))
    return None


def beat_frequencies(scales) -> tuple[float, ...]:
    """Distinct |sum s_j a_j| over all sign vectors, ascending (0 included if a beat exists)."""
    sums, tol = _signed_sums(scales)
    return tuple(sorted({0.0 if abs(v) <= tol else abs(v) for v in sums}))


def aliased_beat_frequencies(scales) -> tuple[float, ...]:
    """Beat frequencies folded to their distance from the nearest multiple of 2*pi.

    These are the oscillation rates actually seen when sampling at integer m;
    zero entries (true or aliased beats) are dropped.
    """
    out = set()
    for freq in beat_frequencies(scales):
        w = math.fmod(freq, TWO_PI)
        w = min(w, TWO_PI - w)
        if w > 1e-9:
            out.add(w)
    return tuple(sorted(out))


def check_validity(spec: BesselProductSpec) -> ValidityReport:
    """Evaluate the validity conditions for the integral-to-sum identity.

    Rules:
      R1  k >= 0, relaxed to k >= -sum_{j in J} |nu_j| when the set J of
          negative-integer orders is non-empty: the zero-limit exponent
          (``zero_exponent``) must be >= 0, to within BOUNDARY_RTOL.
      R2  sum of scales <= 2*pi, otherwise the spec must be rescaled first.
      R3  sum(nu) > 2k - N/2.
      R4  the stricter sum(nu) > 2k - N/2 + 1, required when the scales sit
          on the 2*pi boundary and/or a zero beat frequency exists.

    The sum converges absolutely iff sum(nu) > 2k - N/2 + 1, else (when
    valid) conditionally.
    """
    n = spec.n_factors
    sum_nu = spec.sum_nu
    sum_a = spec.sum_scales
    neg_set = spec.negative_integer_indices()
    rules: list[Rule] = []

    # R1: non-negative k, relaxed by negative-integer orders
    # 0.0 - x, not -x: with no negative-integer orders the bound reads 0, not -0
    k_min = 0.0 - math.fsum(abs(spec.factors[i].nu) for i in neg_set)
    if neg_set:
        rules.append(
            Rule(
                "R1-neg-int",
                f"negative-integer orders at indices {list(neg_set)} relax the "
                f"k-condition to k >= {k_min:g}",
            )
        )
    if spec.zero_exponent() < -BOUNDARY_RTOL:
        rules.append(
            Rule(
                "R1",
                f"k = {spec.k} violates k >= {k_min:g} (t -> 0 limit of the "
                f"integrand diverges)",
                violated=True,
            )
        )

    # R2: scales budget
    side = scale_budget(sum_a)
    on_boundary, needs_rescale = side == 0, side > 0
    if needs_rescale:
        rules.append(
            Rule(
                "R2",
                f"sum of scales {sum_a:.6g} exceeds 2*pi = {TWO_PI:.6g}; "
                f"rescale before summing",
                violated=True,
            )
        )
    elif on_boundary:
        rules.append(
            Rule(
                "R2-boundary",
                "sum of scales equals 2*pi (within tolerance); the strict "
                "order condition R4 applies",
            )
        )

    # R3: order sum against the base threshold
    base = 2.0 * spec.k - n / 2.0
    if not sum_nu > base:
        rules.append(
            Rule(
                "R3",
                f"sum(nu) = {sum_nu:.6g} must exceed 2k - N/2 = {base:.6g}",
                violated=True,
            )
        )

    # R4: strict threshold on the boundary or with a zero beat
    witness = beat_exists(spec.scales)
    if witness is not None:
        rules.append(
            Rule(
                "R4-beat",
                f"zero beat frequency: sign vector {list(witness)} gives "
                f"sum s_j a_j = 0; the strict order condition applies",
            )
        )
    strict = 2.0 * spec.k - n / 2.0 + 1.0
    strict_needed = on_boundary or witness is not None
    if strict_needed and not sum_nu > strict:
        rules.append(
            Rule(
                "R4",
                f"sum(nu) = {sum_nu:.6g} must exceed 2k - N/2 + 1 = {strict:.6g} "
                f"on the 2*pi boundary or with a zero beat",
                violated=True,
            )
        )

    ok = not any(r.violated for r in rules)
    if not ok:
        klass = ConvergenceClass.INVALID
    elif sum_nu > strict:
        klass = ConvergenceClass.ABSOLUTE
    else:
        klass = ConvergenceClass.CONDITIONAL

    return ValidityReport(
        valid=ok,
        convergence_class=klass,
        needs_rescale=needs_rescale,
        beat_witness=witness,
        negative_integer_set=neg_set,
        triggered_rules=tuple(rules),
    )


def integrand_conditions_ok(spec: BesselProductSpec) -> tuple[bool, str]:
    """Existence conditions for the integral alone: ``check_validity``'s,
    read by ``ValidityReport.integrand_conditions``."""
    return check_validity(spec).integrand_conditions()


def rescale(spec: BesselProductSpec) -> tuple[BesselProductSpec, float, float]:
    """Map a spec with sum of scales beyond 2*pi into the validity domain.

    Returns (rescaled spec, prefactor, A) with A = sum(a)/(2*pi) when that
    sum exceeds 2*pi (A = 1 otherwise, the boundary included), scales a/A,
    and prefactor A^(sum(nu) - 1 - 2k) such that

        integral(spec) = prefactor * integral(rescaled spec).

    Raises DomainError when the prefactor overflows or underflows to 0.
    """
    sum_a = spec.sum_scales
    if scale_budget(sum_a) <= 0:
        return spec, 1.0, 1.0
    A = sum_a / TWO_PI
    expo = spec.sum_nu - 1.0 - 2.0 * spec.k
    try:
        prefactor = A ** expo
    except OverflowError:
        prefactor = math.inf
    if not 0.0 < prefactor < math.inf:
        raise DomainError(f"rescale prefactor A^{expo:g} with A = {A:g} is beyond the float range")
    scaled = BesselProductSpec(
        k=spec.k,
        factors=tuple(Factor(f.nu, f.a / A) for f in spec.factors),
    )
    return scaled, prefactor, A


def zero_limit(spec: BesselProductSpec) -> float:
    """lim_{t->0} of the integrand."""
    return power_product_zero_limit(spec.nus, spec.scales, spec.lam)


def _zero_exponent(nus, lam: float) -> float:
    """Net power of t as t -> 0 in t^(-lam) prod_j J_{nu_j}(a_j t):
    sum(|nu| for negative-integer orders, nu otherwise) - lam."""
    return math.fsum(abs(v) if specfun.is_negative_integer(v) else v for v in nus) - lam


def power_product_zero_limit(nus, scales, lam: float) -> float:
    """lim_{t->0} of t^(-lam) prod_j J_{nu_j}(a_j t): 0 where its net power
    of t is positive, the product of leading small-argument coefficients
    where it is 0; InvalidSpec where it is negative."""
    e = _zero_exponent(nus, lam)
    if e < -BOUNDARY_RTOL:
        raise InvalidSpec(
            f"integrand diverges at t = 0 (zero-limit exponent {e:g} < 0)"
        )
    if e > BOUNDARY_RTOL:
        return 0.0
    return math.prod(specfun.small_argument_coeff(v, a) for v, a in zip(nus, scales))


def power_product_array(nus, scales, lam: float, t: np.ndarray) -> np.ndarray:
    """t^(-lam) * prod_j J_{nu_j}(a_j t) over strictly positive t."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t) if lam == 0 else t ** (-lam)
    for nu, a in zip(nus, scales):
        out = out * specfun.jv_array(nu, a * t)
    return out


def integrand_array(spec: BesselProductSpec, t: np.ndarray) -> np.ndarray:
    """Vectorized integrand over strictly positive t (no validity re-check)."""
    return power_product_array(spec.nus, spec.scales, spec.lam, t)


def envelope_constant(spec: BesselProductSpec) -> float:
    """prod_j sqrt(2/(pi a_j)) * 2^N: large-argument envelope amplitude times
    the cosine-product expansion count.  The integrand's envelope is this
    constant times t^(-p), p = lam + N/2."""
    c = 2.0 ** spec.n_factors
    for a in spec.scales:
        c *= math.sqrt(2.0 / (math.pi * a))
    return c


def envelope_reach(c: float, q: float, tol: float, cap: float) -> float:
    """Where the power law c * x^(-q), q > 0, falls to tol: 0 when c <= tol,
    inf at or beyond cap.  Inverted in log space: 1/q blows up as q -> 0+."""
    if c <= tol:
        return 0.0
    log_x = math.log(c / tol) / q
    return math.inf if log_x >= math.log(cap) else math.exp(log_x)


def integrand(spec: BesselProductSpec, t: float) -> float:
    """Integrand t^{2k} prod_j t^{-nu_j} J_{nu_j}(a_j t), continuous at t = 0."""
    t = float(t)
    if t == 0.0:
        return zero_limit(spec)
    if t < 0:
        raise InvalidSpec(f"t must be non-negative, got {t}")
    return float(power_product_array(spec.nus, spec.scales, spec.lam, np.array([t]))[0])


def summand(spec: BesselProductSpec, m: int) -> float:
    """Term eps_m m^{2k} prod_j m^{-nu_j} J_{nu_j}(a_j m) of the sum side.

    eps_0 = 1/2 and eps_m = 1 for m >= 1; the m = 0 term is the half-weight
    t -> 0 limit of the integrand.
    """
    if m < 0 or m != int(m):
        raise InvalidSpec(f"m must be a non-negative integer, got {m!r}")
    if m == 0:
        return 0.5 * zero_limit(spec)
    return integrand(spec, float(m))


def summand_terms(spec: BesselProductSpec, m: np.ndarray) -> np.ndarray:
    """Vectorized summand over integer m >= 1 (weight eps_m = 1)."""
    return power_product_array(spec.nus, spec.scales, spec.lam, np.asarray(m, dtype=float))
