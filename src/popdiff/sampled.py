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
taken for all cells at once, one parameter per call, and dBhat follows
from the product rule on the closed form.  The solves are shared: all
parameters go through one Cholesky solve and one LU solve, since
scipy.linalg's batched calls pay a fixed Python cost per slice.
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

    All parameters share one ``cho_solve`` (their right-hand sides side by
    side as columns) and one ``lu_solve`` (a stack over parameters); the
    exponentials stay one stacked augmented ``expm`` per parameter.
    Beyond the results, the shared solve holds the (ncells, b, P, b+1)
    right-hand side and scipy's stacked solution of that size, and each
    exponential one (ncells, 2b, 2b) stack.
    """
    if ops.dM_blocks is None:
        raise ValueError("operators were assembled without gradients")
    b, ncells = ops.block_size, ops.ncells
    n_params = ops.dM_blocks.shape[0]
    factor = _cho_factor(ops)
    gen = sys.Agen_blocks
    beta = scipy.linalg.cho_solve(factor, ops.Bvec.reshape(ncells, b, 1))
    dbvec = ops.dB.reshape(n_params, ncells, b)
    gen_lu = scipy.linalg.lu_factor(gen)
    x = scipy.linalg.lu_solve(gen_lu, beta)

    # Column block k holds [dK_k + dM_k gen | dB_k - dM_k beta].  A solve
    # with many right-hand sides rounds each column as a solve of it alone.
    rhs = np.empty((ncells, b, n_params, b + 1))
    blocks = np.moveaxis(rhs, 2, 0)
    np.add(ops.dK_blocks, ops.dM_blocks @ gen, out=blocks[..., :b])
    np.subtract(dbvec, (ops.dM_blocks @ beta)[..., 0], out=blocks[..., b])
    sol = scipy.linalg.cho_solve(factor, rhs.reshape(ncells, b, -1))
    del rhs, blocks
    # After the sign flip column block k is [dgen_k | dbeta_k], kept in the
    # layout the solve returns: dgen @ x rounds as on one solve per parameter.
    sol = sol.reshape(ncells, b, n_params, b + 1)
    np.negative(sol[..., :b], out=sol[..., :b])

    # C-contiguous, as the adjoint's contraction over it rounds by layout.
    dA_blocks = np.empty((n_params, ncells, b, b))
    resid = np.empty((n_params, ncells, b, 1))
    for k in range(n_params):
        dgen = sol[:, :, k, :b]
        dA_blocks[k], _ = augmented_expm(gen, dgen, sys.tau)
        np.subtract(sol[:, :, k, b:], dgen @ x, out=resid[k])
    del sol
    # One right-hand side per slice: folded into columns the LU solve
    # would round differently.
    y = scipy.linalg.lu_solve(gen_lu, resid)
    dBhat = dA_blocks @ x + (sys.A_blocks - np.eye(b)) @ y
    sys.dA_blocks = dA_blocks
    sys.dBhat = dBhat.reshape(n_params, -1)
    sys.dChat = ops.dC.copy()
    return sys
