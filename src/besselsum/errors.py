"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the supported domain (e.g. x < 0)."""


class DivergentAtZero(DomainError):
    """J_nu(0) requested for negative non-integer nu, where it diverges."""


class SizeError(ValueError):
    """The work a request needs exceeds a hard cap: beat-table sums, partial-sum
    terms or quadrature panels.  Raised before any of it is built."""


class ConfigError(ValueError):
    """Out-of-range oracle or sweep setting: a quadrature t_max, or run_sweep's
    vary index or term count."""


class InvalidSpec(ValueError):
    """The problem spec fails the validity conditions of the sum identity.

    Carries the full ValidityReport (when available) as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ToleranceUnreachable(RuntimeError):
    """Requested tolerance cannot be met within the term budget."""


class DampingError(ValueError):
    """Correction-term integrand is not exponentially damped (sum of scales >= 2*pi)."""
