"""Pooled least-squares cost over all episodes, its Jacobian and gradient.

The cost is the plain sum of squared residuals between the population
output and the observations, every sample weighted equally and no
regularization term (``optimizer.fit`` adds its pull).  An episode's
output is its input convolved with the population response
h = sum_c omega_c g_c of the node responses g_c[k] = gamma_c . e^{-w_c tau k},
the modal form of one symmetric eigendecomposition per node
(``sampled.build_sampled``, ``forward.response``).  The parameters reach
h only through the nodes and weights, so dh/drho = dweights @ g +
(dnodes * omega) @ dg/dnu, with g_c and dg_c/dnu formed for the count at
hand from node c's rows (gamma, delta, eps) (``sampled.build_sensitivities``
and ``sampled.modal_responses``).  Column p of the residual Jacobian J
stacks each episode's input convolved with dh_p, and the gradient is
2 J^T r: no backward pass and no stored states.  A central
finite-difference twin serves as the permanent cross-check oracle.

``evaluate`` is the one evaluation: it applies the density veto,
assembles and samples the system once (at the quadrature orders fixed in
``assembly``), forms the population response once, for the longest
episode, and convolves each episode's input with it, one ``simulate``
call per episode.  Its ``jacobian`` function reuses them: it
assembles only the derivative tensors (``with_grad`` changes no bit of
the operators) and adds the sensitivities to the same sampled system,
whose derivative rows come from the eigendecomposition ``evaluate``
made.  An episode's output and cost do not depend, bit for bit, on the
episodes evaluated with it.  ``cost``, ``gradient_adjoint`` and
``gradient_fd`` call it; ``optimizer.fit`` calls it directly and asks
for the Jacobian only at accepted points.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .density import RhoParams, gamma_floor
from .errors import PopdiffError, SimulationDivergenceError
from .forward import Episode, convolve, response, simulate
from .grid import GridSpec
from .sampled import SampledSystem, build_sampled, build_sensitivities, modal_responses


@dataclass
class CostReport:
    cost: float
    grad: np.ndarray
    per_episode: list[tuple[str, float]]


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
    """Cost and residuals at one parameter point, with their Jacobian on
    demand; the Jacobian reuses the forward pass that gave ``cost``."""

    cost: float
    per_episode: list[tuple[str, float]]
    residuals: np.ndarray                # (N,) y - y_obs, episodes stacked in order
    jacobian: Callable[[], np.ndarray]   # (N, P) d residuals / d rho

    def gradient(self) -> CostReport:
        grad = 2.0 * (self.jacobian().T @ self.residuals)
        return CostReport(cost=self.cost, grad=grad, per_episode=self.per_episode)


def evaluate(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> Evaluation:
    """Cost of ``rho`` over all episodes from one forward pass.

    Every episode is convolved with the one response ``h``.  A divergence
    names the first diverging episode in list order.
    """
    _check_episodes(spec, episodes)
    ops = assemble(spec, rho, gamma_floor=gamma_floor(rho.box))
    sys = build_sampled(ops, spec.tau)
    count = max(ep.steps for ep in episodes)
    h = response(sys, count)
    resid = []
    for ep in episodes:
        try:
            resid.append(simulate(sys, ep.u, h) - ep.y_obs)
        except SimulationDivergenceError as exc:
            raise SimulationDivergenceError(f"episode {ep.id}: {exc}") from exc

    costs = [float(r @ r) for r in resid]
    # An explicit running sum, not sum(): from Python 3.12 on sum() of
    # floats is compensated and would round the total differently.
    total = 0.0
    for c in costs:
        total += c
    per_episode = [(ep.id, c) for ep, c in zip(episodes, costs)]

    def jacobian() -> np.ndarray:
        ops = assemble(spec, rho, with_grad=True)
        build_sensitivities(ops, sys)
        jac = _jacobian(sys, count, [ep.u for ep in episodes])
        if not np.all(np.isfinite(jac)):
            raise PopdiffError("Jacobian is not finite")
        return jac

    return Evaluation(total, per_episode, np.concatenate(resid), jacobian)


def cost(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> float:
    """Sum of squared residuals over all episodes, j = 0 included."""
    return evaluate(rho, spec, episodes).cost


def _jacobian(sys: SampledSystem, count: int, inputs) -> np.ndarray:
    """(N, P) Jacobian of the outputs j = 0..len(u) of each input in
    ``inputs`` (none longer than ``count``), stacked in order, from the
    nodes' modal form: column p is u * dh_p with
    dh = dweights @ g + (dnodes * omega) @ dg/dnu."""
    g, dg = modal_responses(sys.rates, sys.coefs, sys.tau, count)
    dh = sys.dweights @ g + (sys.dnodes * sys.weights) @ dg
    return np.concatenate([convolve(dh[:, :len(u)], u).T for u in inputs])


def episode_cost_and_gradient(sys: SampledSystem, u: np.ndarray, y_obs: np.ndarray):
    """Cost and parameter gradient of one episode, as ``evaluate`` forms them.

    The system must carry node and weight sensitivities; the gradient
    length follows the leading axis of ``dnodes`` and ``dweights``, so
    surrogate systems with any parameter count work.
    """
    if sys.dnodes is None:
        raise ValueError("system has no sensitivities")
    u = np.asarray(u, dtype=float)
    r = simulate(sys, u) - np.asarray(y_obs, dtype=float)
    return float(r @ r), 2.0 * (_jacobian(sys, len(u), [u]).T @ r)


def gradient_adjoint(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> CostReport:
    """Cost plus full gradient 2 J^T r from one forward pass and its Jacobian."""
    return evaluate(rho, spec, episodes).gradient()


def gradient_fd(
    rho: RhoParams,
    spec: GridSpec,
    episodes: list[Episode],
    step: float = 1e-6,
) -> CostReport:
    """Central finite differences of the cost, component by component."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    at = evaluate(rho, spec, episodes)

    base = rho.as_array()
    grad = np.empty(9)
    for k in range(9):
        h = step * (1 + abs(base[k]))
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        c_up = cost(RhoParams.from_array(up), spec, episodes)
        c_dn = cost(RhoParams.from_array(dn), spec, episodes)
        grad[k] = (c_up - c_dn) / (2 * h)
    return CostReport(cost=at.cost, grad=grad, per_episode=at.per_episode)
