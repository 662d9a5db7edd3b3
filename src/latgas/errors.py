"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and NumericalFailure (including
ConvergenceError) to exit code 3; everything else is a plain bug.
"""


class LatgasError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LatgasError, ValueError):
    """Invalid configuration, file format, or precondition detectable before a run."""


class StabilityError(ConfigError):
    """Time step exceeds the advective step bound of the PDE solver."""


class DomainError(LatgasError, ValueError):
    """A point lies outside the admissible region (e.g. not interior to the hull)."""


class SizeError(LatgasError, ValueError):
    """A problem instance exceeds an enforced size cap."""


class NumericalFailure(LatgasError, RuntimeError):
    """A computation left its admissible region or otherwise failed at run time."""


class ConvergenceError(NumericalFailure):
    """An iterative solver failed to reach its tolerance.

    Attributes:
        residual: sup-norm residual at the final iterate (float or array).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConditioningError(NumericalFailure):
    """A quadratic-form solve is numerically singular beyond regularization."""
