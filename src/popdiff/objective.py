"""Pooled least-squares cost over all episodes and its gradient.

The cost is the plain sum of squared residuals between the population
output and the observations, every sample weighted equally and no
regularization term.  The population output y_j = sum_c omega_c x_{c,j,0}
is a quadrature rule over the nodes nu_c (``sampled``), and every
parameter reaches it only through (nu, omega).  The gradient comes from
one backward (adjoint) recursion per episode (``forward.linear_recursion``
on Ahat^T), forced by the residuals at each node's state 0:

    zeta_mu = f_mu,   zeta_{j-1} = Ahat^T zeta_j + f_{j-1},
    f_{c,j} = 2 (y_j - y_obs_j) omega_c e_0,

after which, per node,

    dJ/dnu_c    = sum_j zeta_{c,j}^T (dAhat_c/dnu x_{c,j-1} + dbhat_c/dnu u_{j-1}),
    dJ/domega_c = sum_j 2 (y_j - y_obs_j) x_{c,j,0},

and dJ/drho = dnodes @ dJ/dnu + dweights @ dJ/domega.  The number of
backward passes is independent of the number of parameters; a central
finite-difference twin serves as the permanent cross-check oracle.

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
from .forward import Episode, linear_recursion, simulate
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
) -> Evaluation:
    """Cost of ``rho`` over all episodes from one forward pass.

    The density floor is checked, the system assembled and sampled once,
    and the episodes of each input length run as one stacked recursion.
    A divergence names the first diverging episode in list order.
    """
    _check_episodes(spec, episodes)
    ops = assemble(spec, rho, quad_order, norm_quad_order, gamma_floor=gamma_floor(rho.box))
    sys = build_sampled(ops, spec.tau)
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
) -> float:
    """Sum of squared residuals over all episodes, j = 0 included."""
    return evaluate(rho, spec, episodes, quad_order, norm_quad_order).cost


def _adjoint(sys: SampledSystem, us: np.ndarray, resid: np.ndarray, states: np.ndarray):
    """Parameter gradients of a stack of equal-length episodes.

    ``us`` (E, mu) are the inputs, ``resid`` (E, mu+1) the residuals and
    ``states`` (E, mu+1, ncells, b) the forward states; one backward
    recursion serves the whole stack, and each episode's gradient is
    contracted on its own, so it equals the one-episode computation bit
    for bit.
    """
    mu = us.shape[1]
    readout = np.zeros((sys.ncells, sys.block_size))
    readout[:, 0] = sys.weights
    # zeta_mu, ..., zeta_1 are the forward recursion run backward in time
    # on Ahat^T, forced by 2 r_mu, ..., 2 r_1; zetas[:, j - 1] is zeta_j.
    back = linear_recursion(np.swapaxes(sys.A_blocks, 1, 2), readout, 2.0 * resid[:, :0:-1])
    zetas = back[:, :0:-1]
    grads = []
    for zeta, x, u, r in zip(zetas, states, us, resid):
        outer = np.einsum("jcb,jcd->cbd", zeta, x[:mu])
        input_sum = np.einsum("jcb,j->cb", zeta, u)
        g_node = (np.einsum("cbd,cbd->c", sys.dA_dnode, outer)
                  + np.einsum("cb,cb->c", sys.dbhat_dnode, input_sum))
        g_weight = 2.0 * (r @ x[:, :, 0])
        grads.append(sys.dnodes @ g_node + sys.dweights @ g_weight)
    return grads


def episode_cost_and_gradient(sys: SampledSystem, u: np.ndarray, y_obs: np.ndarray):
    """Cost and parameter gradient of one episode via the adjoint recursion.

    The system must carry node and weight sensitivities; the gradient
    length follows the leading axis of ``dnodes`` and ``dweights``, so
    surrogate systems with any parameter count work.
    """
    if sys.dnodes is None:
        raise ValueError("system has no sensitivities")
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
) -> CostReport:
    """Cost plus full gradient from one forward and one backward pass."""
    return evaluate(rho, spec, episodes, quad_order, norm_quad_order).gradient()


def gradient_fd(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    step: float = 1e-6,
    quad_order: int = 8,
    norm_quad_order: int = 24,
) -> CostReport:
    """Central finite differences of the cost, component by component."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    at = evaluate(rho, spec, episodes, quad_order, norm_quad_order)

    base = rho.as_array()
    grad = np.empty(9)
    for k in range(9):
        h = step * (1 + abs(base[k]))
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        c_up = cost(RhoParams.from_array(up), spec, episodes, quad_order, norm_quad_order)
        c_dn = cost(RhoParams.from_array(dn), spec, episodes, quad_order, norm_quad_order)
        grad[k] = (c_up - c_dn) / (2 * h)
    return CostReport(cost=at.cost, grad=grad, per_episode=at.per_episode,
                      method="finite-difference")
