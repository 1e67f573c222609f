"""Forward simulation: the population system and the single-q model.

Both are linear and time-invariant from a zero state: the output is the
input convolved with an impulse response.  The population system is the
rule of ``sampled.build_sampled``: one node per density cell, the point
mass at nu_c = w1_c / w_c read at state 0 with the weight
omega_c = w2_c.  Its response is the ``quadrature`` h = sum_c omega_c g_c
of single-q responses g_c at q2 = 1, one dot of fixed length over the
nodes per step, so that entry k does not depend on the count asked for.
The cell moments come at the quadrature orders fixed in ``assembly``.
``simulate`` convolves one input sequence; a caller with several
episodes forms ``response`` once and passes it to each call.  The
single-q model is the same kernel with one point mass per draw.

Every response comes from one place, ``sampled.unit_responses``, which
reads each row from the response table where it can, so neither a
band's draws nor a fit's nodes make an eigendecomposition.  A row is the
same bits in any stack and at any longer count.
``simulate_deterministic_batch`` serves a block of draws with one stack,
and ``simulate_deterministic`` is its one-draw case; a caller whose
draws each have their own input forms their responses in one stack
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
from .sampled import SampledSystem, build_sampled, unit_responses

# Draws per block of simulate_deterministic_batch.  Table rows form no
# (mu, draws, n+1) powers; only draws outside the table do.  1000 draws
# (n = 4 and 8 at 120 steps, n = 16 at 60, one BLAS thread) took about
# the same in blocks of 64 to 512, 128 among the fastest at each n, and
# 5-17 % longer in one block of 1000.
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


def quadrature(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(count,) sums h[k] = sum_c weights_c g_c[k] of the (C, count) node
    rows ``g``: one dot of fixed length C per k, so that h[k] does not
    depend on ``count``."""
    return np.vecdot(np.ascontiguousarray(g.T), weights)


def response(sys: SampledSystem, count: int) -> np.ndarray:
    """Population response h[k] = sum_c omega_c g_c[k] for k < count: the
    ``quadrature`` of the nodes' ``unit_responses``."""
    return quadrature(sys.weights, unit_responses(sys.nodes, sys.n, sys.tau, count))


def _leading(g: np.ndarray, u: np.ndarray, name: str) -> np.ndarray:
    """The first len(u) entries of the response ``g``; ValueError when it
    is shorter, where a convolution would read the missing tail as zeros."""
    if len(g) < len(u):
        raise ValueError(f"response {name} has {len(g)} steps, fewer than the "
                         f"{len(u)} of the input")
    return g[:len(u)]


def simulate(sys: SampledSystem, u: np.ndarray, h: np.ndarray | None = None):
    """Population output at j = 0..len(u): the response ``h`` (at least
    len(u) long, else ValueError; from ``response`` when None) convolved
    with the one input sequence ``u``.  A non-finite output raises
    SimulationDivergenceError.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be one input sequence, got shape {u.shape}")
    y = convolve(response(sys, len(u)) if h is None else _leading(h, u, "h"), u)[0]
    if not np.all(np.isfinite(y)):
        raise SimulationDivergenceError("output is not finite")
    return y


def simulate_deterministic(q, n: int, tau: float, u: np.ndarray,
                           g: np.ndarray | None = None) -> np.ndarray:
    """Output of the single-q model for one input sequence: q2 times the
    unit response ``g`` (at least len(u) long, else ValueError) convolved
    with ``u``.

    When ``g`` is None this is the one-draw case of
    ``simulate_deterministic_batch``.  A caller with several draws, each
    with its own input, forms their ``unit_responses`` in one stack and
    passes each row to a call, as a caller of ``simulate`` passes ``h``.
    A non-finite output raises SimulationDivergenceError.
    """
    if g is None:
        return simulate_deterministic_batch(np.array([_as_point(q)]), n, tau, u)[0]
    y = _as_point(q)[1] * convolve(_leading(g, u, "g"), u)[0]
    if not np.all(np.isfinite(y)):
        raise SimulationDivergenceError("output is not finite")
    return y


def simulate_deterministic_batch(
    qs: np.ndarray, n: int, tau: float, u: np.ndarray
) -> np.ndarray:
    """(len(qs), len(u)+1) single-q outputs for the draws ``qs`` (rows q1, q2).

    Each draw is the point mass at q1 (``unit_responses``).  Its output
    q2 (g * u) is the impulse response g of state 0 convolved with the
    input.
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
        out = y[start:start + BATCH_DRAWS] = q2[:, None] * convolve(
            unit_responses(q1, n, tau, u.shape[0]), u)
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
    mc = simulate_deterministic_batch(qs, spec.n, spec.tau, u).mean(axis=0)
    return pop, mc, float(np.abs(pop - mc).max())
