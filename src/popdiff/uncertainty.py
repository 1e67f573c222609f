"""Credible bands for the predicted output trajectory.

Bands are pointwise empirical quantiles over single-q trajectories
simulated at parameter draws from the fitted distribution.  The
trajectories come from the single-q model itself: the population system
is a quadrature rule over the cells' nodes, which gives the mean output
(the band's center line), not the trajectory at any one q.
All draws go through ``forward.simulate_deterministic_batch``, the one
single-q solver: each draw's response is read by
``sampled.unit_responses``, as the center line's population nodes are,
so once the table pieces are built a band makes no eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import RhoParams, sample_array
from .forward import population_system, simulate, simulate_deterministic_batch
from .grid import GridSpec


@dataclass
class CredibleBand:
    level: float
    lower: np.ndarray
    upper: np.ndarray
    mean_output: np.ndarray
    nsamples: int
    seed: int

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ValueError("band bounds out of order")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def sample_trajectories(
    rho: RhoParams, spec: GridSpec, u: np.ndarray, nsamples: int, seed: int
) -> np.ndarray:
    """(nsamples, steps+1) single-q outputs at draws from the rho-law."""
    qs = sample_array(rho, nsamples, seed)
    return simulate_deterministic_batch(qs, spec.n, spec.tau, u)


def credible_band(
    rho_hat: RhoParams,
    spec: GridSpec,
    u: np.ndarray,
    level: float = 0.75,
    nsamples: int = 1000,
    seed: int = 0,
) -> CredibleBand:
    """Pointwise (1-level)/2 and (1+level)/2 quantile envelope.

    The center line is the population-model output, not the sample mean.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if nsamples < 100:
        raise ValueError(f"need at least 100 samples for quantiles, got {nsamples}")
    trajectories = sample_trajectories(rho_hat, spec, u, nsamples, seed)
    lo = (1.0 - level) / 2.0
    lower, upper = np.quantile(trajectories, [lo, 1.0 - lo], axis=0)
    mean_output = simulate(population_system(rho_hat, spec), u)
    return CredibleBand(
        level=level, lower=lower, upper=upper, mean_output=mean_output,
        nsamples=nsamples, seed=seed,
    )
