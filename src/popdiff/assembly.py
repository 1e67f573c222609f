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
quadrature.  Here f = phi / N with phi the untruncated pdf and N the
box's mass by the same cells, N = sum_c u0_c with u0_c = int_c phi, so
the weights sum to one to rounding.  The moments fix every block, so
they are all that ``assemble`` returns; ``sampled.build_sampled`` turns
them into the sampled system without forming the blocks.

Parameter derivatives of the moments.  Each cell axis is the affine
image q = lo + (hi - lo) s of a fixed reference interval, so an
unnormalized moment u is the quadrature sum  sum W1 W2 G phi  (G one of
1, q1, q2) with no moving limits, and the product rule differentiates it
term by term.  The weights W of an axis share the factor hi - lo, which
cancels in u / N, so only two parts move the moments:

* node motion: a bound moves the nodes by dq/dlo = 1 - s or
  dq/dhi = s; d(G phi)/dq = G dphi/dq + phi dG/dq is reduced per bound
  with that factor folded into the axis' weights;
* density motion: at fixed q, one reduction of G dphi/dtheta over the
  five shape parameters.

With du these two parts, dmoments = du / N - (dN / N) * moments and
dN = sum_c du0_c.  Each G is a product G1(q1) G2(q2), so the derivative
reductions fold it into the axis weights too and never form it on the
node grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import RhoParams, gauss_legendre, phi_values, phi_with_grads, require_mass
from .errors import DegenerateDensityError
from .grid import GridSpec, eta_mass_matrix

# Gauss-Legendre nodes per cell and axis.  This constant fixes the
# quadrature of every layer above; assemble's order parameter serves
# reference values.
DEFAULT_CELL_QUAD_ORDER = 8


@dataclass
class AssembledOperators:
    """The cell moments that fix every Galerkin block.

    ``moments`` holds (w, w1, w2) per cell, with sum w = 1, and ``f_min``
    the smallest density value at a quadrature node.  The derivatives are
    present only when assembled with ``with_grad=True``.
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

    Returns physical nodes q (m, g), weights W (m, g) and reference
    coordinates s in [0, 1] (m, g); q = lo + (hi - lo) s, so
    dq/dlo = 1 - s and dq/dhi = s, and W is proportional to hi - lo.
    """
    x, w = gauss_legendre(order)
    cells = np.arange(m)
    s = (cells[:, None] + 0.5 + 0.5 * x[None, :]) / m
    q = lo + (hi - lo) * s
    W = np.broadcast_to((hi - lo) / (2 * m) * w, s.shape)
    return q, W, s


def _cell_moments(spec: GridSpec, rho: RhoParams, quad_order: int, with_grad: bool):
    """Density moments (1, q1, q2) over every cell, optionally with all
    nine parameter derivatives.  Shapes: moments (3, m1, m2), derivative
    stack (3, 9, m1, m2)."""
    box = rho.box
    m1, m2 = spec.m1, spec.m2
    q1, W1, s1 = _axis_nodes(box.a1, box.b1, m1, quad_order)
    q2, W2, s2 = _axis_nodes(box.a2, box.b2, m2, quad_order)
    g = quad_order

    Q1 = q1.reshape(-1)[:, None]
    Q2 = q2.reshape(-1)[None, :]
    if with_grad:
        phi, dphi_dq, dphi_dtheta = phi_with_grads(Q1, Q2, rho)
    else:
        phi = phi_values(Q1, Q2, rho)
    P = phi.reshape(m1, g, m2, g)

    # Moments of the untruncated pdf; the cells' mass N normalizes them.
    integrands = (1.0, q1.reshape(m1, g, 1, 1), q2.reshape(1, 1, m2, g))
    u = np.stack([np.einsum("ag,bh,agbh->ab", W1, W2, G * P) for G in integrands])
    norm = require_mass(float(u[0].sum()), rho)
    moments = u / norm
    f_min = float(P.min()) / norm
    if not with_grad:
        return moments, None, f_min

    # G = G1(q1) G2(q2) folded into the axis weights: V = W G, (3, m, g).
    G1 = np.stack(np.broadcast_arrays(1.0, q1, 1.0))
    G2 = np.stack(np.broadcast_arrays(1.0, 1.0, q2))
    V1, V2 = W1 * G1, W2 * G2
    # Node motion: d(G phi)/dq = G dphi/dq + phi dG/dq per axis, reduced
    # with dq/d(bound) = (1 - s, s) folded into that axis' weights.
    ends1 = W1 * np.stack([1 - s1, s1])
    ends2 = W2 * np.stack([1 - s2, s2])
    Pq = dphi_dq.reshape(2, m1, g, m2, g)
    # Density motion at fixed q: G dphi/dtheta over the shape parameters.
    Ptheta = dphi_dtheta.reshape(5, m1, g, m2, g)
    du = np.concatenate([
        np.einsum("kiag,ibh,agbh->ikab", ends1[:, None] * G1, V2, Pq[0]),
        np.einsum("iag,kibh,agbh->ikab", V1, ends2[:, None] * G2, Pq[1]),
        np.einsum("iag,ibh,tagbh->itab", V1, V2, Ptheta),
    ], axis=1)
    # phi dG/dq: only the q1 moment's G has a q1 slope, the q2 moment's a q2 one.
    du[1, :2] += np.einsum("kag,bh,agbh->kab", ends1, W2, P)
    du[2, 2:4] += np.einsum("ag,kbh,agbh->kab", W1, ends2, P)
    # The quotient rule through N = sum_c u0_c, in which the weights'
    # common factor hi - lo, and so its motion, cancels.
    dnorm = du[0].sum(axis=(1, 2))
    grads = du / norm - (dnorm / norm)[:, None, None] * moments[:, None]
    return moments, grads, f_min


def assemble(
    spec: GridSpec,
    rho: RhoParams,
    quad_order: int = DEFAULT_CELL_QUAD_ORDER,
    with_grad: bool = False,
    gamma_floor: float | None = None,
) -> AssembledOperators:
    """Assemble the weighted operators for the given grid and parameters.

    Raises ``DegenerateDensityError`` when the cells hold less than
    ``density.NORMALIZATION_FLOOR`` of the pdf's mass.  ``gamma_floor``,
    when given, enforces the operational lower bound on the density at
    the quadrature nodes (the objective layer passes it; direct callers
    inspecting near-degenerate densities leave it None).
    """
    moments, grads, f_min = _cell_moments(spec, rho, quad_order, with_grad)
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

