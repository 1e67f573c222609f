"""Forward simulation: the population system and the single-q model.

Both are one block-diagonal recursion x[j+1] = Ahat x[j] + bhat u[j] from
x[0] = 0, implemented once in ``linear_recursion`` (the adjoint in
``objective`` runs it backward on Ahat^T).  Both are built by one
stacked zero-order hold of point-mass generators G0 + q1 G1.  The
population system has one block per density cell, the point mass at the
node nu_c = w1_c / w_c, and reads its state 0 with the weight
omega_c = w2_c (``sampled.build_sampled``): the output is the quadrature
rule sum_c omega_c g(nu_c) of single-q outputs at q2 = 1.  The single-q
model gives each draw one block: ``simulate_deterministic_batch`` serves
a block of draws with one hold and one recursion, and
``simulate_deterministic`` is its one-draw case.  A Monte Carlo mean
over draws converges to the population output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .density import RhoParams, _as_point, sample_array
from .errors import SimulationDivergenceError
from .grid import GridSpec
from .sampled import SampledSystem, build_sampled, eta_operators, zero_order_hold

# Draws per stacked exponential and recursion in simulate_deterministic_batch;
# keeps the (draws, n+1, n+1) work arrays and the states small.
BATCH_DRAWS = 256


@dataclass
class Episode:
    """One drinking episode on the uniform tau-grid.

    ``u`` holds the zero-order-hold input at j = 0..mu-1 and ``y_obs``
    the observations at j = 0..mu; the state always starts at zero.
    """

    id: str
    tau: float
    u: np.ndarray
    y_obs: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y_obs = np.asarray(self.y_obs, dtype=float)
        if not self.tau > 0:
            raise ValueError(f"episode {self.id}: tau must be positive")
        if self.y_obs.shape != (self.u.shape[0] + 1,):
            raise ValueError(
                f"episode {self.id}: need len(y_obs) == len(u) + 1, got "
                f"{self.y_obs.shape[0]} and {self.u.shape[0]}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y_obs))):
            raise ValueError(f"episode {self.id}: non-finite samples")
        if np.any(self.u < 0):
            raise ValueError(f"episode {self.id}: negative input values")

    @property
    def steps(self) -> int:
        return self.u.shape[0]


def linear_recursion(A: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """States (E, mu+1, C, k) of x[j+1] = A x[j] + b s[j] from x[0] = 0.

    ``A`` (C, k, k) and ``b`` (C, k) are stacks of blocks; the E scalar
    sequences ``s`` (E, mu) run as one recursion.  This is popdiff's one
    loop over time steps; callers check the states for divergence.
    """
    count, mu = s.shape
    states = np.empty((count, mu + 1) + b.shape)
    states[:, 0] = 0.0
    # The forcing b s[j] is written first, one product for all steps, and
    # each step adds A x[j] onto it in place.
    np.multiply(b, s[:, :, None, None], out=states[:, 1:])
    steps = states.swapaxes(0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, nxt in zip(steps[:-1], steps[1:]):
            nxt += np.einsum("cij,ecj->eci", A, x)
    return states


def simulate(sys: SampledSystem, u: np.ndarray, return_states: bool = False):
    """Run the affine recursion from x0 = 0; output at j = 0..len(u).

    ``u`` is one input sequence (mu,) or a stack (E, mu) of equal-length
    ones, which run as one recursion; the outputs are then (E, mu+1) and
    row e equals the one-sequence call on ``u[e]`` bit for bit.  With
    ``return_states`` the per-block state trajectory comes back too,
    (mu+1, ncells, b) or (E, mu+1, ncells, b) (the adjoint pass consumes
    it).  A non-finite output or state raises SimulationDivergenceError,
    whose ``rows`` names the stack rows that diverged.
    """
    u = np.asarray(u, dtype=float)
    us = u if u.ndim == 2 else u[None]
    states = linear_recursion(sys.A_blocks, sys.bhat, us)
    with np.errstate(over="ignore", invalid="ignore"):
        # vecdot rounds each output as weights @ x[:, 0] does: one dot per state.
        y = np.vecdot(states[..., 0], sys.weights)
    bad = ~(np.isfinite(y).all(axis=1) & np.isfinite(states[:, -1]).all(axis=(1, 2)))
    if bad.any():
        raise SimulationDivergenceError("state recursion produced non-finite values",
                                        rows=np.flatnonzero(bad).tolist())
    if u.ndim == 1:
        y, states = y[0], states[0]
    return (y, states) if return_states else y


def simulate_deterministic(q, n: int, tau: float, u: np.ndarray) -> np.ndarray:
    """Output of the single-q model for one input sequence."""
    return simulate_deterministic_batch(np.array([_as_point(q)]), n, tau, u)[0]


def simulate_deterministic_batch(
    qs: np.ndarray, n: int, tau: float, u: np.ndarray
) -> np.ndarray:
    """(len(qs), len(u)+1) single-q outputs for the draws ``qs`` (rows q1, q2).

    Each draw is one block of the population recursion with a point mass:
    its generator is G0 + q1 G1 and its input column beta_eta (see
    ``sampled.eta_operators``), and its output q2 times state 0.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise ValueError(f"draws must have shape (count, 2), got {qs.shape}")
    if not np.all(qs[:, 0] > 0):
        raise ValueError(f"diffusivity q1 must be positive, got {qs[:, 0].min()}")
    u = np.asarray(u, dtype=float)
    g0, g1, beta = eta_operators(n)

    y = np.empty((qs.shape[0], u.shape[0] + 1))
    for start in range(0, qs.shape[0], BATCH_DRAWS):
        q1, q2 = qs[start:start + BATCH_DRAWS].T
        ahat, bhat = zero_order_hold(g0 + q1[:, None, None] * g1, beta, tau)
        states = linear_recursion(ahat, bhat[..., 0], u[None])[0]
        out = y[start:start + BATCH_DRAWS] = q2[:, None] * states[:, :, 0].T
        if not np.all(np.isfinite(out)) or not np.all(np.isfinite(states[-1])):
            raise SimulationDivergenceError("state recursion produced non-finite values")
        del states  # before the next block's states are allocated
    return y


def population_system(
    rho: RhoParams, spec: GridSpec, quad_order: int = 8, norm_quad_order: int = 24
) -> SampledSystem:
    ops = assemble(spec, rho, quad_order, norm_quad_order)
    return build_sampled(ops, spec.tau)


def population_vs_montecarlo(
    rho: RhoParams,
    spec: GridSpec,
    u: np.ndarray,
    nsamples: int,
    seed: int,
    quad_order: int = 8,
):
    """Population output against the Monte Carlo mean of single-q runs.

    Returns (population output, MC-mean output, sup-norm discrepancy).
    """
    pop = simulate(population_system(rho, spec, quad_order=quad_order), u)
    qs = sample_array(rho, nsamples, seed)
    mc = montecarlo_mean_output(qs, spec.n, spec.tau, u)
    return pop, mc, float(np.abs(pop - mc).max())


def montecarlo_mean_output(qs: np.ndarray, n: int, tau: float, u: np.ndarray) -> np.ndarray:
    """Mean single-q output over an array of parameter draws."""
    return simulate_deterministic_batch(qs, n, tau, u).mean(axis=0)
