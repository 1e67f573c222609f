"""Pooled least-squares cost over all episodes, its normal equations and gradient.

The cost is the plain sum of squared residuals between the population
output and the observations, every sample weighted equally and no
regularization term (``optimizer.fit`` adds its pull).  An episode's
output is its input convolved with the population response
h = sum_c omega_c g_c over the rule of ``sampled.build_sampled``: the
node responses g_c are the point masses at the nodes, read from the
response table (``sampled.unit_responses``).  The parameters reach h
only through the nodes and weights, so dh/drho = dweights @ g +
(dnodes * omega) @ dg/dnu, with the rule's derivatives from
``sampled.build_sensitivities`` and the slopes dg_c/dnu from the same
table pieces as g (``sampled.unit_slopes``): the slope rows are
interpolated from the modal derivative, and agree with central
differences of the table's own g rows, so the gradient is that of the
cost being minimised.

Episode e's output is y_e = T_e h, where T_e is the fixed
(len(u)+1, count) map of its input u, T_e[j+1, k] = u[j-k] (row 0 zero).
So the residual Jacobian is J = T dh^T with T the stacked T_e, and the
fit never forms it: its normal equations are J^T J = dh G dh^T, with the
input Gram matrix G = sum_e T_e^T T_e that ``input_gram`` builds once
from the data, and J^T r = dh @ c, with the residual-input
cross-correlation c[k] = sum_e sum_j r_e[j+1] u_e[j-k], one
``np.correlate`` per episode.  The gradient is 2 dh @ c: no backward
pass, no stored states, and a linearization whose work does not grow
with the number of episodes beyond those correlations.  A central
finite-difference twin serves as the permanent cross-check oracle.

``evaluate`` is the one evaluation: it applies the density veto,
assembles and samples the system once (at the quadrature orders fixed in
``assembly``), reads the nodes' rows g and forms the population response
once, for the longest episode, and convolves each episode's input with
it, one ``simulate`` call per episode.  Its ``normal_equations`` and
``gradient`` reuse them: they assemble only the derivative tensors
(``with_grad`` changes no bit of the operators), take the rule with its
sensitivities that ``build_sensitivities`` returns, and read only the
nodes' slope rows, from the table pieces ``evaluate`` read; the
evaluated rule itself never changes.  With those pieces cached, neither
makes an eigendecomposition.  An episode's output and cost do not
depend, bit for bit, on the episodes evaluated with it.  ``cost``,
``gradient_adjoint`` and ``gradient_fd`` call it; ``optimizer.fit``
calls it directly and asks for the normal equations only at accepted
points.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .density import RhoParams, gamma_floor
from .errors import PopdiffError, SimulationDivergenceError
from .forward import Episode, quadrature, simulate
from .grid import GridSpec
from .sampled import (SampledSystem, build_sampled, build_sensitivities, unit_responses,
                      unit_slopes)


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
    """Cost and residuals at one parameter point, with the normal
    equations and the gradient on demand; both reuse the forward pass
    that gave ``cost``."""

    cost: float
    per_episode: list[tuple[str, float]]
    residuals: np.ndarray   # (N,) y - y_obs, episodes stacked in order
    # () -> (dh/drho (P, count), residual-input cross-correlation c (count,))
    linearize: Callable[[], tuple[np.ndarray, np.ndarray]]

    def normal_equations(self, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J^T J, J^T r) = (dh G dh^T, dh @ c) of the residual Jacobian J,
        from the ``input_gram`` G of the evaluated episodes."""
        dh, xcorr = self.linearize()
        return dh @ gram @ dh.T, dh @ xcorr

    def gradient(self) -> CostReport:
        dh, xcorr = self.linearize()
        return CostReport(cost=self.cost, grad=2.0 * (dh @ xcorr),
                          per_episode=self.per_episode)


def input_gram(episodes: list[Episode]) -> np.ndarray:
    """(count, count) Gram matrix G = sum_e T_e^T T_e of the episodes'
    input maps T_e[j+1, k] = u_e[j-k], count the longest episode's steps;
    a shorter episode fills the leading block.

    With v the reversed input, v[i] = u[len(u)-1-i], entry (k, l) of
    T_e^T T_e is sum_{j >= max(k, l)} u[j-k] u[j-l] = sum_m v[k+m] v[l+m]:
    the sum along a diagonal of the outer product v v^T, from (k, l) down.
    So G is one product of the stacked reversed inputs and a scan along
    its diagonals by doubling, with no T_e formed.
    """
    count = max((ep.steps for ep in episodes), default=0)
    reversed_inputs = np.zeros((len(episodes), count))
    for row, ep in zip(reversed_inputs, episodes):
        row[:ep.steps] = ep.u[::-1]
    gram = reversed_inputs.T @ reversed_inputs
    shift = 1
    while shift < count:
        gram[:-shift, :-shift] += gram[shift:, shift:]
        shift *= 2
    return gram


def evaluate(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> Evaluation:
    """Cost of ``rho`` over all episodes from one forward pass.

    Every episode is convolved with the one response ``h``.  A divergence
    names the first diverging episode in list order.
    """
    _check_episodes(spec, episodes)
    ops = assemble(spec, rho, gamma_floor=gamma_floor(rho.box))
    sys = build_sampled(ops, spec.tau)
    count = max(ep.steps for ep in episodes)
    g = unit_responses(sys.nodes, sys.n, sys.tau, count)
    h = quadrature(sys.weights, g)
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

    def linearize() -> tuple[np.ndarray, np.ndarray]:
        ops = assemble(spec, rho, with_grad=True)
        dh = _response_derivative(build_sensitivities(ops, sys), g)
        xcorr = _input_xcorr([ep.u for ep in episodes], resid, count)
        if not (np.all(np.isfinite(dh)) and np.all(np.isfinite(xcorr))):
            raise PopdiffError("linearization is not finite")
        return dh, xcorr

    return Evaluation(total, per_episode, np.concatenate(resid), linearize)


def cost(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> float:
    """Sum of squared residuals over all episodes, j = 0 included."""
    return evaluate(rho, spec, episodes).cost


def _response_derivative(sys: SampledSystem, g: np.ndarray) -> np.ndarray:
    """(P, count) derivative dh = dweights @ g + (dnodes * omega) @ dg/dnu
    of the population response, from the nodes' (C, count)
    ``unit_responses`` ``g`` and their ``unit_slopes``."""
    dg = unit_slopes(sys.nodes, sys.n, sys.tau, g.shape[1])
    return sys.dweights @ g + (sys.dnodes * sys.weights) @ dg


def _input_xcorr(inputs, residuals, count: int) -> np.ndarray:
    """(count,) residual-input cross-correlation c = sum_e T_e^T r_e,
    c[k] = sum_e sum_j r_e[j+1] u_e[j-k], one ``np.correlate`` per input
    with steps (it rejects an empty one, whose T_e is empty)."""
    xcorr = np.zeros(count)
    for u, r in zip(inputs, residuals):
        mu = len(u)
        if mu:
            xcorr[:mu] += np.correlate(r[1:], u, "full")[mu - 1:]
    return xcorr


def episode_cost_and_gradient(sys: SampledSystem, u: np.ndarray, y_obs: np.ndarray):
    """Cost and parameter gradient of one episode, as ``evaluate`` forms them.

    The system must carry node and weight sensitivities; the gradient
    length follows the leading axis of ``dnodes`` and ``dweights``, so
    surrogate systems with any parameter count work.
    """
    if sys.dnodes is None:
        raise ValueError("system has no sensitivities")
    u = np.asarray(u, dtype=float)
    g = unit_responses(sys.nodes, sys.n, sys.tau, len(u))
    r = simulate(sys, u, quadrature(sys.weights, g)) - np.asarray(y_obs, dtype=float)
    return float(r @ r), 2.0 * (_response_derivative(sys, g) @ _input_xcorr([u], [r], len(u)))


def gradient_adjoint(rho: RhoParams, spec: GridSpec, episodes: list[Episode]) -> CostReport:
    """Cost plus full gradient 2 J^T r = 2 dh @ c from one forward pass."""
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
