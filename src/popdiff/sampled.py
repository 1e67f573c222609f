"""Sampled-time system construction and its parameter sensitivities.

With zero-order-hold input at interval tau, the continuous dynamics
collapse exactly to the recursion x_{j+1} = Ahat x_j + Bhat u_j with

    Ahat = exp(Agen * tau),
    Bhat = (Ahat - I) Agen^{-1} (M^{-1} Bvec),
    Agen = -M^{-1} K,

and the output stays the assembled functional, y_j = Chat . x_j.  All
matrices inherit the per-cell block-diagonal structure, so every
operator is a (ncells, b, b) stack and each factorization, solve,
product and exponential below acts on a whole stack at once.

Sensitivities: differentiating M Agen = -K gives
dAgen = -M^{-1}(dK + dM Agen); the pair (Ahat, dAhat) then comes from the
exponential of the block-augmented matrix [[Agen, dAgen], [0, Agen]],
computed one parameter at a time for all cells, and dBhat follows from
the product rule on the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import AssembledOperators
from .errors import ConditioningError, SingularOperatorError


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


def augmented_expm(gen: np.ndarray, direction: np.ndarray, tau: float):
    """Exponential of [[gen, direction], [0, gen]] * tau, slice by slice.

    ``gen`` and ``direction`` are (..., b, b) stacks.  Returns
    (upper_right, lower_right): the sensitivity of exp(gen*tau) in the
    given direction and exp(gen*tau) itself.  A slice whose direction is
    zero gets an exactly zero sensitivity.
    """
    b = gen.shape[-1]
    aug = np.zeros(gen.shape[:-2] + (2 * b, 2 * b))
    aug[..., :b, :b] = gen
    aug[..., :b, b:] = direction
    aug[..., b:, b:] = gen
    big = scipy.linalg.expm(aug * tau)
    upper = big[..., :b, b:]
    upper[~direction.any(axis=(-2, -1))] = 0.0
    return upper, big[..., b:, b:]


def _cho_factor(ops: AssembledOperators):
    """Cholesky factors of every mass block, for batched ``cho_solve``."""
    try:
        factor, _ = scipy.linalg.cho_factor(ops.M_blocks)
    except scipy.linalg.LinAlgError as exc:
        raise SingularOperatorError(
            f"a mass block is not positive definite (smallest cell weight "
            f"{ops.M_blocks.max(axis=(1, 2)).min():.3e}); cannot factorize"
        ) from exc
    return factor, False


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
    """Discrete-time operators from assembled ones; tau > 0."""
    b = ops.block_size
    # One solve for [K | Bvec] rather than two: scipy.linalg's batched
    # calls loop over the cells in Python, a fixed cost paid per call.
    rhs = np.concatenate([ops.K_blocks, ops.Bvec.reshape(ops.ncells, b, 1)], axis=-1)
    sol = scipy.linalg.cho_solve(_cho_factor(ops), rhs)
    # cho_solve hands back Fortran-ordered slices; the products that read
    # the stored generator round as on C-ordered blocks.
    gen = np.ascontiguousarray(-sol[..., :b])
    beta = sol[..., b:]
    ahat, bhat = zero_order_hold(gen, beta, tau)
    return SampledSystem(
        block_size=b, ncells=ops.ncells, tau=tau,
        A_blocks=ahat, Agen_blocks=gen,
        Bhat=bhat.reshape(-1), Chat=ops.Cvec.copy(),
    )


def build_sensitivities(ops: AssembledOperators, sys: SampledSystem) -> SampledSystem:
    """Fill dA_blocks, dBhat, dChat on ``sys`` from the gradient tensors of ``ops``.

    One stacked augmented exponential per parameter; memory stays at a
    single (ncells, 2b, 2b) stack.
    """
    if ops.dM_blocks is None:
        raise ValueError("operators were assembled without gradients")
    b = ops.block_size
    n_params = ops.dM_blocks.shape[0]
    factor = _cho_factor(ops)
    gen = sys.Agen_blocks
    beta = scipy.linalg.cho_solve(factor, ops.Bvec.reshape(ops.ncells, b, 1))
    dbvec = ops.dB.reshape(n_params, ops.ncells, b, 1)
    gen_lu = scipy.linalg.lu_factor(gen)
    x = scipy.linalg.lu_solve(gen_lu, beta)
    ahat_minus_eye = sys.A_blocks - np.eye(b)

    dA_blocks = np.empty((n_params, ops.ncells, b, b))
    dBhat = np.empty((n_params, ops.ncells, b, 1))
    for k in range(n_params):
        dgen = -scipy.linalg.cho_solve(factor, ops.dK_blocks[k] + ops.dM_blocks[k] @ gen)
        dahat, _ = augmented_expm(gen, dgen, sys.tau)
        dbeta = scipy.linalg.cho_solve(factor, dbvec[k] - ops.dM_blocks[k] @ beta)
        dA_blocks[k] = dahat
        dBhat[k] = dahat @ x + ahat_minus_eye @ scipy.linalg.lu_solve(
            gen_lu, dbeta - dgen @ x
        )
    sys.dA_blocks = dA_blocks
    sys.dBhat = dBhat.reshape(n_params, -1)
    sys.dChat = ops.dC.copy()
    return sys
