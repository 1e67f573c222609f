"""Exception types shared across the package."""


class PopdiffError(Exception):
    """Base class for all popdiff-specific failures."""


class InvalidParameterError(PopdiffError, ValueError):
    """A parameter vector violates its feasibility constraints."""


class DegenerateDensityError(PopdiffError):
    """The parameter density has (numerically) no mass where it is needed.

    Raised when the pdf's mass in the support box (by the assembly's
    cells or by ``density.normalization``) underflows, when rejection
    sampling cannot find the box, or when the density at the quadrature
    nodes falls below the operational lower bound.  The optimizer treats
    this as a rejected trial step rather than abort.
    """


class SingularOperatorError(PopdiffError):
    """A density cell has no mass, so its node w1/w is undefined
    (``sampled.build_sampled`` names the first such cell)."""


class ConditioningError(PopdiffError):
    """A point mass's q1 is not finite, or so large that rounding in its
    symmetric form S(q1) leaves the slowest rate unresolved
    (``sampled.node_modes``, bound ``NODE_ROUNDING``)."""


class SimulationDivergenceError(PopdiffError):
    """The simulated output is not finite."""


class EpisodeParseError(PopdiffError, ValueError):
    """An episode file could not be parsed; carries the offending line."""

    def __init__(self, message: str, path: str = "", line_no: int = 0):
        self.path = path
        self.line_no = line_no
        if path or line_no:
            message = f"{path}:{line_no}: {message}"
        super().__init__(message)


class IngestionError(PopdiffError, ValueError):
    """Episode channels cannot be placed on a common time grid."""


class ConfigError(PopdiffError, ValueError):
    """A run configuration file is malformed or has unknown keys."""
