"""Pooled least-squares cost over all episodes and its gradient.

The cost is the plain sum of squared residuals between the population
output and the observations, every sample weighted equally and no
regularization term.  The gradient comes from one backward (adjoint)
recursion per episode:

    zeta_mu = w_mu,   zeta_{j-1} = Ahat^T zeta_j + w_{j-1},
    w_j = 2 (Chat . x_j - y_obs_j) Chat^T,

after which

    dJ/drho_k = sum_j zeta_j^T (dAhat_k x_{j-1} + dBhat_k u_{j-1})
              + sum_j 2 (Chat . x_j - y_obs_j) (dChat_k . x_j).

The forcing uses the full functional Chat^T rather than a first-
coordinate selector, which is what the residual gradient requires for a
dense output functional.  The number of backward passes is independent
of the number of parameters; a central finite-difference twin serves as
the permanent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .density import RhoParams, gamma_floor
from .errors import PopdiffError, SimulationDivergenceError
from .forward import Episode, simulate
from .grid import GridSpec
from .sampled import SampledSystem, build_sampled, build_sensitivities


@dataclass
class CostReport:
    cost: float
    grad: np.ndarray
    per_episode: list[tuple[str, float]]
    method: str  # "adjoint" or "finite-difference"


def _check_episodes(spec: GridSpec, episodes: list[Episode]) -> None:
    if not episodes:
        raise ValueError("at least one episode is required")
    for ep in episodes:
        if abs(ep.tau - spec.tau) > 1e-12 * max(1.0, spec.tau):
            raise ValueError(
                f"episode {ep.id}: tau {ep.tau} differs from grid tau {spec.tau}"
            )


def _system(rho, spec, quad_order, norm_quad_order, with_grad, check_gamma):
    floor = gamma_floor(rho.box) if check_gamma else None
    ops = assemble(spec, rho, quad_order, norm_quad_order,
                   with_grad=with_grad, gamma_floor=floor)
    sys = build_sampled(ops, spec.tau)
    if with_grad:
        build_sensitivities(ops, sys)
    return sys


def cost(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> float:
    """Sum of squared residuals over all episodes, j = 0 included."""
    _check_episodes(spec, episodes)
    sys = _system(rho, spec, quad_order, norm_quad_order, False, check_gamma)
    return _episode_costs(sys, episodes)[0]


def _episode_costs(sys: SampledSystem, episodes: list[Episode]):
    """Total and per-episode squared residuals; a divergence names its episode."""
    # An explicit running sum, not sum(): from Python 3.12 on sum() of
    # floats is compensated and would round the total differently.
    total = 0.0
    per_episode = []
    for ep in episodes:
        try:
            y = simulate(sys, ep.u)
        except SimulationDivergenceError as exc:
            raise SimulationDivergenceError(f"episode {ep.id}: {exc}") from exc
        r = y - ep.y_obs
        c = float(r @ r)
        total += c
        per_episode.append((ep.id, c))
    return total, per_episode


def episode_cost_and_gradient(sys: SampledSystem, u: np.ndarray, y_obs: np.ndarray):
    """Cost and parameter gradient of one episode via the adjoint recursion.

    The system must carry sensitivity tensors; the gradient length
    follows their leading axis, so surrogate systems with any parameter
    count work.
    """
    if sys.dA_blocks is None:
        raise ValueError("system has no sensitivity tensors")
    y, states = simulate(sys, u, return_states=True)
    r = y - np.asarray(y_obs, dtype=float)
    c = float(r @ r)

    mu = len(u)
    ncells, b = sys.ncells, sys.block_size
    forcing = 2.0 * r[:, None] * sys.Chat[None, :]
    xb = states.reshape(mu + 1, ncells, b)

    if mu > 0:
        zetas = np.empty((mu, ncells, b))
        zeta = forcing[mu].reshape(ncells, b)
        zetas[mu - 1] = zeta
        for j in range(mu - 1, 0, -1):
            zeta = np.einsum("cji,cj->ci", sys.A_blocks, zeta) + forcing[j].reshape(
                ncells, b
            )
            zetas[j - 1] = zeta
        # Contractions shared by every parameter: state/adjoint outer
        # products per cell, input-weighted adjoint sum, residual-weighted
        # state sum.
        outer = np.einsum("jcb,jcd->cbd", zetas, xb[:mu])
        input_sum = np.einsum("jcb,j->cb", zetas, np.asarray(u, dtype=float))
    else:
        outer = np.zeros((ncells, b, b))
        input_sum = np.zeros((ncells, b))
    resid_sum = 2.0 * np.einsum("j,jcb->cb", r, xb)

    grad = (
        np.einsum("kcbd,cbd->k", sys.dA_blocks, outer)
        + sys.dBhat @ input_sum.reshape(-1)
        + sys.dChat @ resid_sum.reshape(-1)
    )
    return c, grad


def gradient_adjoint(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> CostReport:
    """Cost plus full gradient with one forward/backward pass per episode."""
    _check_episodes(spec, episodes)
    sys = _system(rho, spec, quad_order, norm_quad_order, True, check_gamma)
    total = 0.0
    grad = np.zeros(sys.n_params)
    per_episode = []
    for ep in episodes:
        try:
            c, g = episode_cost_and_gradient(sys, ep.u, ep.y_obs)
        except SimulationDivergenceError as exc:
            raise SimulationDivergenceError(f"episode {ep.id}: {exc}") from exc
        total += c
        grad += g
        per_episode.append((ep.id, c))
    if not np.all(np.isfinite(grad)):
        raise PopdiffError("adjoint gradient is not finite")
    return CostReport(cost=total, grad=grad, per_episode=per_episode, method="adjoint")


def gradient_fd(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    step: float = 1e-6,
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> CostReport:
    """Central finite differences of the cost, component by component."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    _check_episodes(spec, episodes)
    sys = _system(rho, spec, quad_order, norm_quad_order, False, check_gamma)
    total, per_episode = _episode_costs(sys, episodes)

    base = rho.as_array()
    grad = np.empty(9)
    for k in range(9):
        h = step * (1 + abs(base[k]))
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        c_up = cost(RhoParams.from_array(up), spec, episodes,
                    quad_order, norm_quad_order, check_gamma)
        c_dn = cost(RhoParams.from_array(dn), spec, episodes,
                    quad_order, norm_quad_order, check_gamma)
        grad[k] = (c_up - c_dn) / (2 * h)
    return CostReport(cost=total, grad=grad, per_episode=per_episode,
                      method="finite-difference")
