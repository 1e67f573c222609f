"""Forward simulation: the population system and the single-q model.

Both are linear and time-invariant from a zero state: the output is the
input convolved with an impulse response.  The population system has one
node per density cell, the point mass at nu_c = w1_c / w_c read at state
0 with the weight omega_c = w2_c (``sampled.build_sampled``).  Its
response is the quadrature rule h = sum_c omega_c g_c of single-q
responses at q2 = 1, each in modal form, g_c[k] = sum_i gamma_ci
z_ci^k with the decay factors z = e^{-w tau}: ``response`` forms the
powers by doubling (``sampled.decay_powers``) and h[k] by one dot of
fixed length per k, so that h[k] does not depend on the count asked for.
The cell moments come at the quadrature orders fixed in ``assembly``.
``simulate`` convolves one input sequence; a caller with several
episodes forms ``response`` once and passes it to each call.
The single-q model gives each draw one block, the recursion
x[j+1] = Ahat x[j] + bhat u[j] of one stacked ``sampled.point_mass_hold``
of the generators G0 + q1 G1, and its impulse response e0^T Ahat^k bhat,
which ``impulse_response`` forms by doubling, with no loop over time and
no rows beyond the count asked for.  ``simulate_deterministic_batch``
serves a block of draws with one hold and one doubling, and
``simulate_deterministic`` is its one-draw case; a caller whose draws
each have their own input forms their responses in one stack
(``unit_responses``) and passes each row to ``simulate_deterministic``.
A Monte Carlo mean over draws converges to the population output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .density import RhoParams, _as_point, sample_array
from .errors import SimulationDivergenceError
from .grid import GridSpec
from .sampled import SampledSystem, build_sampled, decay_powers, point_mass_hold

# Draws per stacked exponential and impulse response in
# simulate_deterministic_batch; keeps the (draws, mu, n+1) responses small.
BATCH_DRAWS = 128


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
        if self.u.ndim != 1:
            raise ValueError(f"episode {self.id}: u must be one sequence, got shape "
                             f"{self.u.shape}")
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


def impulse_response(A: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """(..., count, k) array of A^j b for j < count, for stacks of blocks.

    Doubling: each step extends v_0..v_{m-1} by v_{m+i} = A^m v_i (one
    batched matmul) and squares A^m; the last step extends only up to
    count, so v_j does not depend on count.  That step makes at least two
    rows (one spare): NumPy computes a one-row product as a matrix-vector
    product, which rounds v_{m} differently from a matrix product.
    """
    out = np.empty(b.shape[:-1] + (count + 1, b.shape[-1]))
    out[..., 0, :] = b
    power, m = A, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < count:
            end = min(2 * m, max(count, m + 2))
            np.matmul(out[..., :end - m, :], np.swapaxes(power, -1, -2), out=out[..., m:end, :])
            m *= 2
            if m < count:
                power = power @ power
    return out[..., :count, :]


def convolve(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(rows, mu+1) outputs y[0] = 0, y[j+1] = sum_{i<=j} g[j-i] u[i] of
    (mu,) or (rows, mu) ``g`` and one input sequence ``u`` of length mu,
    one ``np.convolve`` per row.  A diverged response gives non-finite
    outputs without a warning; callers test the outputs."""
    g = np.atleast_2d(g)
    mu = len(u)
    y = np.zeros((g.shape[0], mu + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, gr in zip(y[:, 1:], g) if mu else ():
            out[:] = np.convolve(gr, u)[:mu]
    return y


def response(sys: SampledSystem, count: int) -> np.ndarray:
    """Population response h[k] = sum_c omega_c sum_i gamma_ci z_ci^k for
    k < count, with z = e^{-w tau} from the nodes' rates: the powers by
    ``decay_powers`` and one dot per k, so that h[k] does not depend on
    ``count``."""
    powers = decay_powers(np.exp(-sys.tau * sys.rates), count)
    return np.vecdot(powers.reshape(count, sys.rates.size),
                     (sys.weights[:, None] * sys.gamma).reshape(-1))


def simulate(sys: SampledSystem, u: np.ndarray, h: np.ndarray | None = None):
    """Population output at j = 0..len(u): the response ``h`` (at least
    len(u) long; from ``response`` when None) convolved with the one
    input sequence ``u``.  A non-finite output raises
    SimulationDivergenceError.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be one input sequence, got shape {u.shape}")
    y = convolve((response(sys, len(u)) if h is None else h)[:len(u)], u)[0]
    if not np.all(np.isfinite(y)):
        raise SimulationDivergenceError("output is not finite")
    return y


def unit_responses(q1: np.ndarray, n: int, tau: float, count: int) -> np.ndarray:
    """(len(q1), count) impulse responses at q2 = 1 of the point masses at
    the diffusivities ``q1``: one stacked hold, one doubling.  Each block
    is held on its own and the responses do not depend on ``count``, so a
    row is the same bits in any stack and at any longer count."""
    ahat, bhat = point_mass_hold(q1, n, tau)
    return impulse_response(ahat, bhat, count)[..., 0]


def simulate_deterministic(q, n: int, tau: float, u: np.ndarray,
                           g: np.ndarray | None = None) -> np.ndarray:
    """Output of the single-q model for one input sequence: q2 times the
    unit response ``g`` (at least len(u) long) convolved with ``u``.

    When ``g`` is None this is the one-draw case of
    ``simulate_deterministic_batch``.  A caller with several draws, each
    with its own input, forms their ``unit_responses`` in one stack and
    passes each row to a call, as a caller of ``simulate`` passes ``h``.
    A non-finite output raises SimulationDivergenceError.
    """
    if g is None:
        return simulate_deterministic_batch(np.array([_as_point(q)]), n, tau, u)[0]
    y = _as_point(q)[1] * convolve(g[:len(u)], u)[0]
    if not np.all(np.isfinite(y)):
        raise SimulationDivergenceError("output is not finite")
    return y


def simulate_deterministic_batch(
    qs: np.ndarray, n: int, tau: float, u: np.ndarray
) -> np.ndarray:
    """(len(qs), len(u)+1) single-q outputs for the draws ``qs`` (rows q1, q2).

    Each draw is the point mass at q1, held by ``sampled.point_mass_hold``.
    Its output q2 (g * u) is the impulse response g of state 0 convolved
    with the input.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise ValueError(f"draws must have shape (count, 2), got {qs.shape}")
    if not np.all(qs[:, 0] > 0):
        raise ValueError(f"diffusivity q1 must be positive, got {qs[:, 0].min()}")
    u = np.asarray(u, dtype=float)

    y = np.empty((qs.shape[0], u.shape[0] + 1))
    for start in range(0, qs.shape[0], BATCH_DRAWS):
        q1, q2 = qs[start:start + BATCH_DRAWS].T
        # ahat and bhat live through the convolutions: freeing them first, by
        # calling unit_responses here, measured 12% slower at n = 16 (1000
        # draws of 60 steps; 2-CPU Xeon, OpenBLAS 0.3.31).  No name holds
        # the responses, so they are freed before the next block's.
        ahat, bhat = point_mass_hold(q1, n, tau)
        out = y[start:start + BATCH_DRAWS] = q2[:, None] * convolve(
            impulse_response(ahat, bhat, u.shape[0])[..., 0], u)
        if not np.all(np.isfinite(out)):
            raise SimulationDivergenceError("output is not finite")
    return y


def population_system(rho: RhoParams, spec: GridSpec) -> SampledSystem:
    return build_sampled(assemble(spec, rho), spec.tau)


def population_vs_montecarlo(
    rho: RhoParams, spec: GridSpec, u: np.ndarray, nsamples: int, seed: int
):
    """Population output against the Monte Carlo mean of single-q runs.

    Returns (population output, MC-mean output, sup-norm discrepancy).
    """
    pop = simulate(population_system(rho, spec), u)
    qs = sample_array(rho, nsamples, seed)
    mc = montecarlo_mean_output(qs, spec.n, spec.tau, u)
    return pop, mc, float(np.abs(pop - mc).max())


def montecarlo_mean_output(qs: np.ndarray, n: int, tau: float, u: np.ndarray) -> np.ndarray:
    """Mean single-q output over an array of parameter draws."""
    return simulate_deterministic_batch(qs, n, tau, u).mean(axis=0)
