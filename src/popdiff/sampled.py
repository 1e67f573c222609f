"""Sampled-time system: a point-mass kernel at quadrature nodes.

Cell c's Galerkin blocks are M_c = w_c M_eta, K_c = w_c e0 e0^T +
w1_c K_eta, B_c = w2_c e_n and C_c = w_c e_0, so the cell is exactly the
single-q system at the node nu_c = w1_c / w_c, read with the weight
omega_c = w2_c: the population output is the quadrature rule
y = sum_c omega_c g(nu_c), where g(q1) is state 0 of the point mass at
q1 with unit input gain (generator G0 + q1 G1 and input column beta_eta
from ``eta_operators``).  With zero-order-hold input at interval tau
each node collapses exactly to x_{j+1} = Ahat x_j + bhat u_j, with

    Ahat_c = exp(Agen_c tau),   Agen_c = G0 + nu_c G1,
    bhat_c = (Ahat_c - I) Agen_c^{-1} beta_eta,

one stacked hold for all nodes, as ``zero_order_hold`` forms it for the
single-q draws of ``forward.simulate_deterministic_batch``.

Sensitivities: every parameter reaches the output only through the
nodes and weights, so the system stores the per-node derivatives
dAhat_c/dnu and dbhat_c/dnu once and the (P, ncells) Jacobians dnu/drho
and domega/drho.  dAhat_c/dnu is the upper-right block of the
exponential of [[Agen_c, G1], [0, Agen_c]] tau (Van Loan 1978), one
stacked exponential for all nodes; dbhat_c/dnu reuses the hold's
Agen_c^{-1} beta_eta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import AssembledOperators
from .errors import ConditioningError, SingularOperatorError
from .grid import eta_mass_matrix, eta_stiffness_matrix


@dataclass
class SampledSystem:
    """Discrete-time point-mass blocks at the nodes, with readout weights."""

    block_size: int
    ncells: int
    tau: float
    A_blocks: np.ndarray        # (ncells, b, b) blocks of Ahat
    Agen_blocks: np.ndarray     # (ncells, b, b) blocks of the generator
    bhat: np.ndarray            # (ncells, b) input column of each node
    weights: np.ndarray         # (ncells,) readout weight of each node's state 0
    gen_inv_beta: np.ndarray | None = None  # (ncells, b, 1) Agen^{-1} beta_eta, from the hold
    dA_dnode: np.ndarray | None = None      # (ncells, b, b)
    dbhat_dnode: np.ndarray | None = None   # (ncells, b)
    dnodes: np.ndarray | None = None        # (P, ncells)
    dweights: np.ndarray | None = None      # (P, ncells)

    @property
    def dim(self) -> int:
        return self.block_size * self.ncells

    @property
    def n_params(self) -> int:
        return 0 if self.dnodes is None else self.dnodes.shape[0]

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A_blocks)).max())


@functools.cache
def eta_operators(n: int):
    """(G0, G1, beta_eta) of the depth model: a point mass at q has the
    generator G0 + q1 G1 and the input column q2 beta_eta, with
    G0 = -M_eta^{-1} e0 e0^T, G1 = -M_eta^{-1} K_eta and
    beta_eta = M_eta^{-1} e_n, all from one solve.  Cached per n; the
    arrays are read-only."""
    eye = np.eye(n + 1)
    sol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(eta_mass_matrix(n)),
                                 np.column_stack([eye[0], eta_stiffness_matrix(n), eye[n]]))
    g0, g1, beta = -np.outer(sol[:, 0], eye[0]), -sol[:, 1:-1], sol[:, -1:]
    for arr in (g0, g1, beta):
        arr.setflags(write=False)
    return g0, g1, beta


def augmented_expm(gen: np.ndarray, direction: np.ndarray, tau: float):
    """Exponential of [[gen, direction], [0, gen]] * tau, slice by slice.

    ``gen`` is a (..., b, b) stack and ``direction`` one that broadcasts
    against it.  Returns (upper_right, lower_right): the sensitivity of
    exp(gen*tau) in the given direction and exp(gen*tau) itself.
    """
    b = gen.shape[-1]
    aug = np.zeros(gen.shape[:-2] + (2 * b, 2 * b))
    aug[..., :b, :b] = gen
    aug[..., :b, b:] = direction
    aug[..., b:, b:] = gen
    big = scipy.linalg.expm(aug * tau)
    return big[..., :b, b:], big[..., b:, b:]


def _exp_and_solve(gen: np.ndarray, beta: np.ndarray, tau: float):
    """(exp(gen tau), gen^{-1} beta): the two factors of the zero-order hold."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ahat = scipy.linalg.expm(gen * tau)
    finite = np.isfinite(ahat).all(axis=(-2, -1))
    if not finite.all():
        raise ConditioningError(
            f"matrix exponential overflowed in block {int(np.argmin(finite))}"
        )
    try:
        return ahat, np.linalg.solve(gen, beta)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("a generator block is singular") from exc


def zero_order_hold(gen: np.ndarray, beta: np.ndarray, tau: float):
    """(Ahat, Bhat) of x' = gen x + beta u with u held over each interval tau.

    ``gen`` is a (..., b, b) stack and ``beta`` a (..., b, 1) stack that
    broadcasts against it; Ahat = exp(gen tau), Bhat = (Ahat - I) gen^{-1} beta.
    """
    ahat, x = _exp_and_solve(gen, beta, tau)
    return ahat, (ahat - np.eye(gen.shape[-1])) @ x


def build_sampled(ops: AssembledOperators, tau: float) -> SampledSystem:
    """Discrete-time operators from the cell moments; tau > 0.

    Node c sits at q1 = nu_c = w1_c / w_c with generator G0 + nu_c G1 and
    input column beta_eta, the blocks that
    ``forward.simulate_deterministic_batch`` builds for a draw; its state
    0 is read with the weight omega_c = w2_c.
    """
    w, w1, w2 = ops.moments
    if not np.all(w > 0):
        raise SingularOperatorError(
            f"a cell has no mass (smallest cell weight {w.min():.3e}); "
            "its mass block is singular"
        )
    b = ops.block_size
    g0, g1, beta = eta_operators(b - 1)
    gen = g0 + (w1 / w)[:, None, None] * g1
    # zero_order_hold, keeping gen^{-1} beta_eta for build_sensitivities.
    ahat, x = _exp_and_solve(gen, beta, tau)
    bhat = (ahat - np.eye(b)) @ x
    return SampledSystem(
        block_size=b, ncells=ops.ncells, tau=tau,
        A_blocks=ahat, Agen_blocks=gen, bhat=bhat[..., 0], weights=w2, gen_inv_beta=x,
    )


def build_sensitivities(ops: AssembledOperators, sys: SampledSystem) -> SampledSystem:
    """Fill the node and weight sensitivities of ``sys`` from ``ops``.

    Per node: dA_dnode = S_c, the augmented-exponential derivative of
    Ahat_c in the direction G1, and, with z_c = gen_c^{-1} beta_eta (kept
    by ``build_sampled``, not solved again),
    dbhat_dnode = S_c z_c - (Ahat_c - I) gen_c^{-1} G1 z_c.  Per
    parameter: dnodes = (dw1 - nu dw) / w and dweights = dw2, from the
    moment derivatives.
    """
    if ops.dmoments is None:
        raise ValueError("operators were assembled without gradients")
    g1 = eta_operators(ops.block_size - 1)[1]
    w, w1, _ = ops.moments
    dw, dw1, dw2 = ops.dmoments

    gen, z = sys.Agen_blocks, sys.gen_inv_beta
    sens, _ = augmented_expm(gen, g1, sys.tau)
    # A copy, so that the (ncells, 2b, 2b) exponential is not kept alive.
    sys.dA_dnode = np.ascontiguousarray(sens)
    sys.dbhat_dnode = (sens @ z - (sys.A_blocks - np.eye(ops.block_size))
                       @ np.linalg.solve(gen, g1 @ z))[..., 0]
    sys.dnodes = (dw1 - (w1 / w) * dw) / w
    sys.dweights = dw2
    return sys
