"""Exception types raised by the physics and numerics layers."""


class RqtError(Exception):
    """Base class for all library errors."""


class EnergyEqualsPotential(RqtError):
    """E - V(x) is numerically zero; the law of motion divides by it."""


class TurningPointSingular(RqtError):
    """(E - V)^2 equals the squared rest energy; the local wavenumber vanishes."""


class NonPositiveF(RqtError):
    """The velocity-field factor f must be strictly positive."""


class SuperluminalArgument(RqtError):
    """Lagrangian radicand 1 - (xdot^2/c^2) f is not positive."""


class RegimeError(RqtError):
    """Operation requested outside its regime of validity."""


class DependentInitials(RqtError):
    """Initial conditions of the two solution columns are linearly dependent."""


class StepTooLarge(RqtError):
    """Grid step under-resolves the largest local wavenumber (|k h| > 0.1)."""


class BasisGapError(RqtError):
    """Requested positions fall outside the solution basis grid."""


class InsufficientTrajectories(RqtError):
    """Node detection needs at least two trajectories."""


class TooFewSamples(RqtError):
    """Not enough samples for the differentiation stencil or a trajectory file."""


class BranchResolutionError(RqtError):
    """Grid too coarse to track the phase branch (per-step jump near pi)."""


class ConfigError(RqtError):
    """Run configuration file is malformed or inconsistent."""
