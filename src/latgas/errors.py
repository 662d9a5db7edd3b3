"""Exception types shared across the package.

The CLI maps ConfigError (including StabilityError and SizeError, inputs
rejected before any work) to exit code 2 and NumericalFailure (including
ConvergenceError) to exit code 3; everything else is a plain bug.

An input is checked once, where it is evaluated before any work (reservoir
densities at the lattice and grid points, hull margins by
`thermo.ConvexDomain.worst`; a NaN fails), and exits 2; a DomainError raised
mid-run (a trajectory or iterate leaving the hull) exits 3.
"""


class LatgasError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LatgasError, ValueError):
    """Invalid configuration, file format, or precondition detectable before a run."""


class StabilityError(ConfigError):
    """Time step exceeds the advective step bound of the PDE solver."""


class DomainError(LatgasError, ValueError):
    """A point lies outside the admissible region (e.g. not interior to the hull)."""


class SizeError(ConfigError):
    """A problem instance exceeds an enforced size cap."""


class NumericalFailure(LatgasError, RuntimeError):
    """A computation left its admissible region or otherwise failed at run time."""


class ConvergenceError(NumericalFailure):
    """An iterative solver failed to reach its tolerance, or an exact inverse
    left its admissible range (densities outside (0, 1))."""


class ConditioningError(NumericalFailure):
    """A quadratic-form solve is numerically singular beyond regularization."""
