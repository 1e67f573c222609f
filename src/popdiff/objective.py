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

``evaluate`` is the one evaluation: it applies the density veto,
assembles and samples the system once and runs all episodes of one
input length as one stacked forward recursion.  It returns the cost and
a ``gradient`` function that reuses that forward pass: it assembles only
the derivative tensors (``with_grad`` changes no bit of the operators),
adds the sensitivities to the same sampled system and runs one stacked
backward recursion.  Each episode's contractions and the sum over
episodes stay per episode, in list order, so the results equal a
one-episode-at-a-time loop bit for bit.  ``cost``, ``gradient_adjoint``
and ``gradient_fd`` call it; ``optimizer.fit`` calls it directly and
asks for the gradient only at accepted points.
"""

from __future__ import annotations

from collections.abc import Callable
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


@dataclass
class Evaluation:
    """Cost at one parameter point, with its gradient on demand.

    ``gradient()`` reuses the forward pass that gave ``cost``: it adds the
    parameter sensitivities to the same sampled system and runs the
    backward recursion over the stored states.
    """

    cost: float
    per_episode: list[tuple[str, float]]
    gradient: Callable[[], CostReport]


def evaluate(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> Evaluation:
    """Cost of ``rho`` over all episodes from one forward pass.

    The density floor is checked, the system assembled and sampled once,
    and the episodes of each input length run as one stacked recursion.
    A divergence names the first diverging episode in list order.
    """
    _check_episodes(spec, episodes)
    floor = gamma_floor(rho.box) if check_gamma else None
    sys = build_sampled(
        assemble(spec, rho, quad_order, norm_quad_order, gamma_floor=floor), spec.tau
    )
    by_length: dict[int, list[int]] = {}
    for i, ep in enumerate(episodes):
        by_length.setdefault(ep.steps, []).append(i)
    runs = []  # (episode indices, inputs, residuals, states) per length
    diverged = []
    for idx in by_length.values():
        us = np.stack([episodes[i].u for i in idx])
        try:
            y, states = simulate(sys, us, return_states=True)
        except SimulationDivergenceError as exc:
            diverged.append((idx[exc.rows[0]], exc))
            continue
        runs.append((idx, us, y - np.stack([episodes[i].y_obs for i in idx]), states))
    if diverged:
        i, exc = min(diverged, key=lambda d: d[0])
        raise SimulationDivergenceError(f"episode {episodes[i].id}: {exc}") from exc

    costs = [0.0] * len(episodes)
    for idx, _, resid, _ in runs:
        for i, r in zip(idx, resid):
            costs[i] = float(r @ r)
    # An explicit running sum, not sum(): from Python 3.12 on sum() of
    # floats is compensated and would round the total differently.
    total = 0.0
    for c in costs:
        total += c
    per_episode = [(ep.id, c) for ep, c in zip(episodes, costs)]

    def gradient() -> CostReport:
        ops = assemble(spec, rho, quad_order, norm_quad_order, with_grad=True)
        build_sensitivities(ops, sys)
        grads = [None] * len(episodes)
        for idx, us, resid, states in runs:
            for i, g in zip(idx, _adjoint(sys, us, resid, states)):
                grads[i] = g
        grad = np.zeros(sys.n_params)
        for g in grads:
            grad += g
        if not np.all(np.isfinite(grad)):
            raise PopdiffError("adjoint gradient is not finite")
        return CostReport(cost=total, grad=grad, per_episode=per_episode, method="adjoint")

    return Evaluation(total, per_episode, gradient)


def cost(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> float:
    """Sum of squared residuals over all episodes, j = 0 included."""
    return evaluate(rho, spec, episodes, quad_order, norm_quad_order, check_gamma).cost


def _adjoint(sys: SampledSystem, us: np.ndarray, resid: np.ndarray, states: np.ndarray):
    """Parameter gradients of a stack of equal-length episodes.

    ``us`` (E, mu) are the inputs, ``resid`` (E, mu+1) the residuals and
    ``states`` (E, mu+1, dim) the forward states; one backward recursion
    serves the whole stack, and each episode's gradient is contracted on
    its own, so it equals the one-episode computation bit for bit.
    """
    count, mu = us.shape
    ncells, b = sys.ncells, sys.block_size
    chat = sys.Chat.reshape(ncells, b)
    xb = states.reshape(count, mu + 1, ncells, b)
    zetas = np.empty((count, mu, ncells, b))
    if mu > 0:
        zeta = zetas[:, mu - 1] = 2.0 * resid[:, mu, None, None] * chat
        for j in range(mu - 1, 0, -1):
            zeta = zetas[:, j - 1] = (np.einsum("cji,ecj->eci", sys.A_blocks, zeta)
                                      + 2.0 * resid[:, j, None, None] * chat)
    grads = []
    for e in range(count):
        # Contractions shared by every parameter: state/adjoint outer
        # products per cell, input-weighted adjoint sum, residual-weighted
        # state sum.
        outer = np.einsum("jcb,jcd->cbd", zetas[e], xb[e, :mu])
        input_sum = np.einsum("jcb,j->cb", zetas[e], us[e])
        resid_sum = 2.0 * np.einsum("j,jcb->cb", resid[e], xb[e])
        grads.append(
            np.einsum("kcbd,cbd->k", sys.dA_blocks, outer)
            + sys.dBhat @ input_sum.reshape(-1)
            + sys.dChat @ resid_sum.reshape(-1)
        )
    return grads


def episode_cost_and_gradient(sys: SampledSystem, u: np.ndarray, y_obs: np.ndarray):
    """Cost and parameter gradient of one episode via the adjoint recursion.

    The system must carry sensitivity tensors; the gradient length
    follows their leading axis, so surrogate systems with any parameter
    count work.
    """
    if sys.dA_blocks is None:
        raise ValueError("system has no sensitivity tensors")
    u = np.asarray(u, dtype=float)
    y, states = simulate(sys, u, return_states=True)
    r = y - np.asarray(y_obs, dtype=float)
    return float(r @ r), _adjoint(sys, u[None], r[None], states[None])[0]


def gradient_adjoint(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    quad_order: int = 8,
    norm_quad_order: int = 24,
    check_gamma: bool = True,
) -> CostReport:
    """Cost plus full gradient from one forward and one backward pass."""
    return evaluate(rho, spec, episodes, quad_order, norm_quad_order,
                    check_gamma).gradient()


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
    at = evaluate(rho, spec, episodes, quad_order, norm_quad_order, check_gamma)

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
    return CostReport(cost=at.cost, grad=grad, per_episode=at.per_episode,
                      method="finite-difference")
