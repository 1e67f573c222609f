"""Sampled-time system construction and its parameter sensitivities.

Cell c's Galerkin blocks are M_c = w_c M_eta, K_c = w_c e0 e0^T +
w1_c K_eta, B_c = w2_c e_n and C_c = w_c e_0, so M_c^{-1} K_c and
M_c^{-1} B_c depend on the moments only through r_c = w1_c / w_c and
s_c = w2_c / w_c: the cell is the point-mass system at q1 = r_c, with
generator Agen_c = G0 + r_c G1, input column s_c beta_eta and output w_c
times state 0 (G0, G1 and beta_eta from ``eta_operators``).  With
zero-order-hold input at interval tau the dynamics collapse exactly to
the recursion x_{j+1} = Ahat x_j + Bhat u_j, y_j = Chat . x_j, with

    Ahat_c = exp(Agen_c tau),
    Bhat_c = s_c (Ahat_c - I) Agen_c^{-1} beta_eta,

one stacked hold for all cells, the same ``zero_order_hold`` that the
single-q draws of ``forward.simulate_deterministic_batch`` use.  Every
operator is a (ncells, b, b) stack.

Sensitivities: every parameter moves cell c only through the moments
(w_c, w1_c, w2_c):

    dAhat_c = dr_c S_c,         S_c = dAhat_c / dr_c,
    dBhat_c = dr_c t_c + ds_c v_c,

where S_c is the upper-right block of the exponential of the augmented
matrix [[Agen_c, G1], [0, Agen_c]] tau (Van Loan 1978), one stacked
exponential for all cells and parameters, and t_c, v_c follow from the
product rule on the closed form of Bhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import AssembledOperators
from .errors import ConditioningError, SingularOperatorError
from .grid import eta_mass_matrix, eta_stiffness_matrix


@dataclass
class SampledSystem:
    """Discrete-time operators, stored per cell block."""

    block_size: int
    ncells: int
    tau: float
    A_blocks: np.ndarray        # (ncells, b, b) blocks of Ahat
    Agen_blocks: np.ndarray     # (ncells, b, b) blocks of the generator
    Bhat: np.ndarray            # (dim,)
    Chat: np.ndarray            # (dim,)
    dA_blocks: np.ndarray | None = None   # (P, ncells, b, b)
    dBhat: np.ndarray | None = None       # (P, dim)
    dChat: np.ndarray | None = None       # (P, dim)

    @property
    def dim(self) -> int:
        return self.block_size * self.ncells

    @property
    def n_params(self) -> int:
        return 0 if self.dA_blocks is None else self.dA_blocks.shape[0]

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A_blocks)).max())


def eta_operators(n: int):
    """(G0, G1, beta_eta) of the depth model: a point mass at q has the
    generator G0 + q1 G1 and the input column q2 beta_eta, with
    G0 = -M_eta^{-1} e0 e0^T, G1 = -M_eta^{-1} K_eta and
    beta_eta = M_eta^{-1} e_n, all from one solve."""
    eye = np.eye(n + 1)
    sol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(eta_mass_matrix(n)),
                                 np.column_stack([eye[0], eta_stiffness_matrix(n), eye[n]]))
    return -np.outer(sol[:, 0], eye[0]), -sol[:, 1:-1], sol[:, -1:]


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


def zero_order_hold(gen: np.ndarray, beta: np.ndarray, tau: float):
    """(Ahat, Bhat) of x' = gen x + beta u with u held over each interval tau.

    ``gen`` is a (..., b, b) stack and ``beta`` a (..., b, 1) stack that
    broadcasts against it; Ahat = exp(gen tau), Bhat = (Ahat - I) gen^{-1} beta.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ahat = scipy.linalg.expm(gen * tau)
    finite = np.isfinite(ahat).all(axis=(-2, -1))
    if not finite.all():
        raise ConditioningError(
            f"matrix exponential overflowed in block {int(np.argmin(finite))}"
        )
    try:
        x = np.linalg.solve(gen, beta)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("a generator block is singular") from exc
    return ahat, (ahat - np.eye(gen.shape[-1])) @ x


def build_sampled(ops: AssembledOperators, tau: float) -> SampledSystem:
    """Discrete-time operators from the cell moments; tau > 0.

    Cell c is the point-mass system at q1 = r_c: generator G0 + r_c G1,
    input column s_c beta_eta and output w_c times state 0, the blocks
    that ``forward.simulate_deterministic_batch`` builds for a draw.
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
    ahat, bhat = zero_order_hold(gen, beta, tau)
    chat = np.zeros((ops.ncells, b))
    chat[:, 0] = w
    return SampledSystem(
        block_size=b, ncells=ops.ncells, tau=tau,
        A_blocks=ahat, Agen_blocks=gen,
        Bhat=((w2 / w)[:, None] * bhat[..., 0]).reshape(-1), Chat=chat.reshape(-1),
    )


def build_sensitivities(ops: AssembledOperators, sys: SampledSystem) -> SampledSystem:
    """Fill dA_blocks, dBhat, dChat on ``sys`` from the moment derivatives of ``ops``.

    Each parameter k moves cell c through dr = (dw1 - r dw) / w and
    ds = (dw2 - s dw) / w alone, so all parameters share one stacked
    exponential, S_c = dAhat_c / dr, and two generator solves.  With
    x_c = s_c gen_c^{-1} beta_eta, the input sensitivity is
    dBhat_c = dr t_c + ds v_c, where v_c = (Ahat_c - I) gen_c^{-1} beta_eta
    and t_c = S_c x_c - (Ahat_c - I) gen_c^{-1} G1 x_c.
    """
    if ops.dmoments is None:
        raise ValueError("operators were assembled without gradients")
    b = ops.block_size
    _, g1, beta = eta_operators(b - 1)
    w, w1, w2 = ops.moments
    dw, dw1, dw2 = ops.dmoments
    r, s = w1 / w, w2 / w
    dr = (dw1 - r * dw) / w
    ds = (dw2 - s * dw) / w

    gen = sys.Agen_blocks
    sens, _ = augmented_expm(gen, g1, sys.tau)
    a_minus_eye = sys.A_blocks - np.eye(b)
    z = np.linalg.solve(gen, beta)
    v = a_minus_eye @ z
    x = s[:, None, None] * z
    t = sens @ x - a_minus_eye @ np.linalg.solve(gen, g1 @ x)

    # C-contiguous, as the adjoint's contraction over it rounds by layout.
    sys.dA_blocks = dr[:, :, None, None] * sens
    sys.dBhat = (dr[:, :, None] * t[..., 0] + ds[:, :, None] * v[..., 0]).reshape(len(dr), -1)
    sys.dChat = np.zeros_like(sys.dBhat)
    sys.dChat[:, ::b] = dw  # Chat holds w_c at each block's state 0
    return sys
