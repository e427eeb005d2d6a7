"""Exception types shared across the solver."""


class BandctlError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BandctlError):
    """A model configuration violates an invariant."""


class NonOrderedRates(ValidationError):
    """Production rates must satisfy 0 < sigma2 < sigma1."""


class SwitchInequalityViolated(ValidationError):
    """Switching costs must penalize simultaneous phase changes."""


class NegativeCost(ValidationError):
    """Cost coefficients must be nonnegative."""


class BacklogUnsupported(ValidationError):
    """The analytic engine requires a zero backlog floor (l = 0)."""


class RootFindingFailed(BandctlError):
    """Roots of the Laplace-exponent equation are complex or repeated."""


class ThetaInsideSpectrum(BandctlError):
    """Laplace argument does not dominate the largest exponent."""


class OutOfBand(BandctlError):
    """Evaluation point lies outside the operation's domain."""


class QuadratureNotConverged(BandctlError):
    """Node doubling hit its cap before reaching the target tolerance."""


class FixedPointNotContractive(BandctlError):
    """The scalar level-b equation x = c + m*x has |m| >= 1."""


class NoFeasiblePoint(BandctlError):
    """No candidate on the search lattice satisfies the ordering constraints."""


class InvalidStart(ValidationError):
    """Simulation start state is inconsistent (phase 0 only at capacity)."""


class WorkerDied(RuntimeError):
    """A forked worker process ended before returning its results."""
