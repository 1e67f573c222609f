"""Forward simulation: the population system and the single-q model.

The single-q model has one solver, ``simulate_deterministic_batch``: every
draw shares the mass matrix, its generator is affine in q1 and its output
is linear in q2, so one stacked exponential and one vectorized recursion
serve a whole block of draws.  ``simulate_deterministic`` is its one-draw
case.  The population system is assembled independently (tensor
Galerkin), and with piecewise-constant cells its output is exactly the
density-weighted mixture of single-q outputs, sum_c w2_c g(w1_c/w_c) with
g the output at q2 = 1; the tests hold each solver to the other through
that identity.  A Monte Carlo mean over parameter draws converges to the
population trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import assemble
from .density import RhoParams, _as_point, sample_array
from .errors import ConditioningError, SimulationDivergenceError, SingularOperatorError
from .grid import GridSpec, eta_mass_matrix, eta_stiffness_matrix
from .sampled import SampledSystem, build_sampled

# Draws per stacked exponential and recursion in simulate_deterministic_batch;
# keeps the (draws, n+1, n+1) work arrays small.
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
    x0_zero: bool = True

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
        if not self.x0_zero:
            raise ValueError("nonzero initial states are not modeled")

    @property
    def steps(self) -> int:
        return self.u.shape[0]


def simulate(sys: SampledSystem, u: np.ndarray, return_states: bool = False):
    """Run the affine recursion from x0 = 0; output at j = 0..len(u).

    With ``return_states`` the full state trajectory comes back too (the
    adjoint pass consumes it).
    """
    u = np.asarray(u, dtype=float)
    mu = u.shape[0]
    b = sys.block_size
    bhat = sys.Bhat.reshape(sys.ncells, b)
    x = np.zeros((sys.ncells, b))
    y = np.empty(mu + 1)
    states = np.zeros((mu + 1, sys.dim)) if return_states else None
    chat = sys.Chat
    for j in range(mu):
        y[j] = chat @ x.reshape(-1)
        if return_states:
            states[j] = x.reshape(-1)
        x = np.einsum("cij,cj->ci", sys.A_blocks, x) + bhat * u[j]
    y[mu] = chat @ x.reshape(-1)
    if return_states:
        states[mu] = x.reshape(-1)
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
        raise SimulationDivergenceError("state recursion produced non-finite values")
    return (y, states) if return_states else y


def simulate_deterministic(q, n: int, tau: float, u: np.ndarray) -> np.ndarray:
    """Output of the single-q model for one input sequence."""
    return simulate_deterministic_batch(np.array([_as_point(q)]), n, tau, u)[0]


def simulate_deterministic_batch(
    qs: np.ndarray, n: int, tau: float, u: np.ndarray
) -> np.ndarray:
    """(len(qs), len(u)+1) single-q outputs for the draws ``qs`` (rows q1, q2).

    The generator of draw i is G0 + q1_i G1 with G0 = -M^{-1} e0 e0^T and
    G1 = -M^{-1} K_eta, and Bhat_i = q2_i (Ahat_i - I) gen_i^{-1} M^{-1} e_n.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise ValueError(f"draws must have shape (count, 2), got {qs.shape}")
    if not np.all(qs[:, 0] > 0):
        raise ValueError(f"diffusivity q1 must be positive, got {qs[:, 0].min()}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u = np.asarray(u, dtype=float)
    b = n + 1
    mass = scipy.linalg.cho_factor(eta_mass_matrix(n))
    e00 = np.zeros((b, b))
    e00[0, 0] = 1.0
    g0 = -scipy.linalg.cho_solve(mass, e00)
    g1 = -scipy.linalg.cho_solve(mass, eta_stiffness_matrix(n))
    beta = scipy.linalg.cho_solve(mass, np.eye(b)[n])
    eye = np.eye(b)

    y = np.empty((qs.shape[0], u.shape[0] + 1))
    for start in range(0, qs.shape[0], BATCH_DRAWS):
        q1, q2 = qs[start:start + BATCH_DRAWS].T
        gen = g0 + q1[:, None, None] * g1
        ahat = scipy.linalg.expm(gen * tau)
        finite = np.isfinite(ahat).all(axis=(1, 2))
        if not finite.all():
            raise ConditioningError(
                f"matrix exponential overflowed at q1 = {q1[~finite][0]}"
            )
        try:
            x = np.linalg.solve(gen, beta[:, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("single-q generator singular") from exc
        bhat = q2[:, None] * np.einsum("kij,kj->ki", ahat - eye, x)
        state = np.zeros((len(q1), b))
        out = y[start:start + BATCH_DRAWS]
        for j, uj in enumerate(u):
            out[:, j] = state[:, 0]
            state = np.einsum("kij,kj->ki", ahat, state) + bhat * uj
        out[:, -1] = state[:, 0]
        if not np.all(np.isfinite(out)) or not np.all(np.isfinite(state)):
            raise SimulationDivergenceError("state recursion produced non-finite values")
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
