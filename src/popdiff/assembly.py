"""Density moments of the tensor-product Galerkin discretization.

For basis elements hat_j(eta) * indicator_cell(q), entries coupling
distinct parameter cells vanish, so every operator is block-diagonal with
one (n+1) x (n+1) block per cell.  Within cell c the blocks reduce to

    M_c = w_c * M_eta
    K_c = w_c * e0 e0^T + w1_c * K_eta
    B_c = w2_c * e_n          (input functional q2 * value at eta = 1)
    C_c = w_c  * e_0          (output functional, value at eta = 0)

with the density moments w_c = int_c f, w1_c = int_c q1 f and
w2_c = int_c q2 f over the cell, computed with per-cell Gauss-Legendre
quadrature.  The moments fix every block, so they are all that
``assemble`` returns; ``sampled.build_sampled`` turns them into the
sampled system without forming the blocks.

Parameter derivatives of the moments: mean/Cholesky components
differentiate the integrand; support components additionally move the
integration limits.  Mapping each cell affinely onto a fixed reference
interval puts all support dependence into smooth node/weight/integrand
factors, so the moments are classically differentiable in every
component and the derivative of int_c g(q) f(q) dq with respect to a
bound collects three terms: weight motion, node motion, and the explicit
normalization derivative of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (
    DEFAULT_NORM_QUAD_ORDER,
    RhoParams,
    gauss_legendre,
    normalization,
    normalization_grad,
    phi_values,
    phi_with_grads,
)
from .errors import DegenerateDensityError
from .grid import GridSpec, eta_mass_matrix

# Gauss-Legendre nodes per cell and axis.  This constant and
# density.DEFAULT_NORM_QUAD_ORDER fix the quadrature of every layer above;
# the order parameters of assemble and normalization serve reference values.
DEFAULT_CELL_QUAD_ORDER = 8


@dataclass
class AssembledOperators:
    """The cell moments that fix every Galerkin block.

    ``moments`` holds (w, w1, w2) per cell and ``f_min`` the smallest
    density value at a quadrature node.  The derivatives are present
    only when assembled with ``with_grad=True``.
    """

    block_size: int
    ncells: int
    f_min: float
    moments: np.ndarray             # (3, ncells)
    dmoments: np.ndarray | None = None    # (3, 9, ncells)

    @property
    def dM_blocks(self) -> np.ndarray | None:
        """(9, ncells, b, b) mass-block derivatives dw times M_eta, built on
        access.  No layer of popdiff reads them; perfbench/tracing.py
        counts parameters by their leading axis."""
        if self.dmoments is None:
            return None
        return self.dmoments[0, :, :, None, None] * eta_mass_matrix(self.block_size - 1)


def _flat_cells(arr: np.ndarray) -> np.ndarray:
    """Flatten trailing (m1, m2) axes to the cell index c = (j1-1) + m1*(j2-1)."""
    return np.moveaxis(arr, -2, -1).reshape(*arr.shape[:-2], -1)


def _axis_nodes(lo: float, hi: float, m: int, order: int):
    """Per-cell Gauss data for one parameter axis.

    Returns physical nodes q (m, g), weights W (m, g), reference
    coordinates s in [0, 1] (m, g), and the endpoint derivatives
    dW/dlo, dW/dhi (scalar arrays (g,)); node derivatives are
    dq/dlo = 1 - s and dq/dhi = s.
    """
    x, w = gauss_legendre(order)
    cells = np.arange(m)
    s = (cells[:, None] + 0.5 + 0.5 * x[None, :]) / m
    q = lo + (hi - lo) * s
    W = np.broadcast_to((hi - lo) / (2 * m) * w, s.shape)
    dW_dlo = -w / (2 * m)
    dW_dhi = w / (2 * m)
    return q, W, s, dW_dlo, dW_dhi


def _cell_moments(spec: GridSpec, rho: RhoParams, quad_order: int,
                  norm_quad_order: int, with_grad: bool):
    """Density moments (1, q1, q2) over every cell, optionally with all
    nine parameter derivatives.  Shapes: moments (3, m1, m2), derivative
    stack (3, 9, m1, m2)."""
    box = rho.box
    m1, m2 = spec.m1, spec.m2
    q1, W1, s1, dW1_da, dW1_db = _axis_nodes(box.a1, box.b1, m1, quad_order)
    q2, W2, s2, dW2_da, dW2_db = _axis_nodes(box.a2, box.b2, m2, quad_order)
    g = quad_order

    norm = normalization(rho, norm_quad_order)
    Q1 = q1.reshape(-1)[:, None]
    Q2 = q2.reshape(-1)[None, :]
    if with_grad:
        phi, dphi_dq, dphi_dtheta = phi_with_grads(Q1, Q2, rho)
    else:
        phi = phi_values(Q1, Q2, rho)
    F = (phi / norm).reshape(m1, g, m2, g)
    f_min = float(F.min())

    G1 = np.broadcast_to(q1.reshape(m1, g, 1, 1), F.shape)
    G2 = np.broadcast_to(q2.reshape(1, 1, m2, g), F.shape)
    integrands = (
        (np.ones_like(F), 0.0, 0.0),   # total mass
        (G1, 1.0, 0.0),                # q1 moment
        (G2, 0.0, 1.0),                # q2 moment
    )

    def reduce(wa, wb, X):
        return np.einsum("ag,bh,agbh->ab", wa, wb, X)

    moments = np.stack([reduce(W1, W2, G * F) for G, _, _ in integrands])
    if not with_grad:
        return moments, None, f_min

    ngrad = normalization_grad(rho, norm_quad_order)
    Fq = (dphi_dq / norm).reshape(2, m1, g, m2, g)
    # d f / d theta at fixed q: differentiate phi and the normalization.
    Ftheta = (dphi_dtheta / norm).reshape(5, m1, g, m2, g)
    Ftheta -= (ngrad[4:] / norm)[:, None, None, None, None] * F

    ds1_da = np.broadcast_to((1 - s1).reshape(m1, g, 1, 1), F.shape)
    ds1_db = np.broadcast_to(s1.reshape(m1, g, 1, 1), F.shape)
    ds2_da = np.broadcast_to((1 - s2).reshape(1, 1, m2, g), F.shape)
    ds2_db = np.broadcast_to(s2.reshape(1, 1, m2, g), F.shape)
    dW1_da_full = np.broadcast_to(dW1_da, (m1, g))
    dW1_db_full = np.broadcast_to(dW1_db, (m1, g))
    dW2_da_full = np.broadcast_to(dW2_da, (m2, g))
    dW2_db_full = np.broadcast_to(dW2_db, (m2, g))

    grads = np.empty((3, 9, m1, m2))
    for i, (G, c1, c2) in enumerate(integrands):
        GF = G * F
        # Chain rule through moving nodes: d(G f)/dq times dq/d(bound).
        flux1 = c1 * F + G * Fq[0]
        flux2 = c2 * F + G * Fq[1]
        for k, (dWa, dnode) in enumerate(
            [(dW1_da_full, ds1_da), (dW1_db_full, ds1_db)]
        ):
            grads[i, k] = (
                reduce(dWa, W2, GF)
                + reduce(W1, W2, flux1 * dnode)
                - (ngrad[k] / norm) * reduce(W1, W2, GF)
            )
        for k, (dWb, dnode) in enumerate(
            [(dW2_da_full, ds2_da), (dW2_db_full, ds2_db)], start=2
        ):
            grads[i, k] = (
                reduce(W1, dWb, GF)
                + reduce(W1, W2, flux2 * dnode)
                - (ngrad[k] / norm) * reduce(W1, W2, GF)
            )
        for k in range(5):
            grads[i, 4 + k] = reduce(W1, W2, G * Ftheta[k])
    return moments, grads, f_min


def assemble(
    spec: GridSpec,
    rho: RhoParams,
    quad_order: int = DEFAULT_CELL_QUAD_ORDER,
    norm_quad_order: int = DEFAULT_NORM_QUAD_ORDER,
    with_grad: bool = False,
    gamma_floor: float | None = None,
) -> AssembledOperators:
    """Assemble the weighted operators for the given grid and parameters.

    ``gamma_floor``, when given, enforces the operational lower bound on
    the density at the quadrature nodes (the objective layer passes it;
    direct callers inspecting near-degenerate densities leave it None).
    """
    moments, grads, f_min = _cell_moments(
        spec, rho, quad_order, norm_quad_order, with_grad
    )
    if gamma_floor is not None and f_min < gamma_floor:
        raise DegenerateDensityError(
            f"density {f_min:.3e} at a quadrature node is below the "
            f"operational floor {gamma_floor:.3e}; iterate rejected"
        )

    ops = AssembledOperators(
        block_size=spec.block_size, ncells=spec.ncells,
        f_min=f_min, moments=_flat_cells(moments),
    )
    if with_grad:
        ops.dmoments = _flat_cells(grads)
    return ops

