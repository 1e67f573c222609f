"""Distribution fitting for a boundary-input boundary-output diffusion model.

The random diffusivity/gain pair of the single-episode model is treated
as two extra coordinates of the state space; a tensor-product Galerkin
discretization over depth times the parameter box turns expectation-
taking into ordinary matrix algebra.  The package fits a truncated
bivariate normal parameter law to pooled episode data by Levenberg-
Marquardt least squares on the normal equations of the exact residual
Jacobian and reports credible bands for predicted outputs.
"""

from .assembly import AssembledOperators, assemble
from .density import (
    QPoint,
    RhoParams,
    density_grad_rho,
    eval_density,
    normalization,
    sample,
    sigma_from_l,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DegenerateDensityError,
    EpisodeParseError,
    IngestionError,
    InvalidParameterError,
    PopdiffError,
    SimulationDivergenceError,
    SingularOperatorError,
)
from .forward import (
    Episode,
    population_system,
    population_vs_montecarlo,
    simulate,
    simulate_deterministic,
)
from .grid import GridSpec, QBox
from .objective import CostReport, cost, gradient_adjoint, gradient_fd
from .optimizer import FitOptions, FitResult, fit, fit_deterministic, initialize
from .sampled import SampledSystem, build_sampled, build_sensitivities
from .uncertainty import CredibleBand, credible_band

__version__ = "0.1.0"

__all__ = [
    "AssembledOperators",
    "ConditioningError",
    "ConfigError",
    "CostReport",
    "CredibleBand",
    "DegenerateDensityError",
    "Episode",
    "EpisodeParseError",
    "FitOptions",
    "FitResult",
    "GridSpec",
    "IngestionError",
    "InvalidParameterError",
    "PopdiffError",
    "QBox",
    "QPoint",
    "RhoParams",
    "SampledSystem",
    "SimulationDivergenceError",
    "SingularOperatorError",
    "assemble",
    "build_sampled",
    "build_sensitivities",
    "cost",
    "credible_band",
    "density_grad_rho",
    "eval_density",
    "fit",
    "fit_deterministic",
    "gradient_adjoint",
    "gradient_fd",
    "initialize",
    "normalization",
    "population_system",
    "population_vs_montecarlo",
    "sample",
    "sigma_from_l",
    "simulate",
    "simulate_deterministic",
]
