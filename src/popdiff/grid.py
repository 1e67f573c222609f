"""Tensor-product approximation space: grid, parameter box, depth matrices.

The state space is spanned by products of linear "pup tent" splines in the
depth variable eta (uniform mesh on [0, 1] with n subintervals) and
piecewise-constant indicators over a uniform m1 x m2 partition of the
parameter box [a1, b1] x [a2, b2].  Basis function (j, j1, j2) sits at
flat position j + (n+1) c with cell number c = (j1-1) + m1 (j2-1), so the
coefficients of one parameter cell are contiguous: the bilinear form never
couples distinct cells, so all assembled operators are block-diagonal
with m1*m2 blocks of size n+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Diffusivity lower bound: the box must keep q1 strictly positive or the
# generator degenerates.
Q1_FLOOR = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Discretization triple (n, m1, m2) plus the sampling interval tau [h]."""

    n: int
    m1: int
    m2: int
    tau: float

    def __post_init__(self):
        if self.n < 1 or self.m1 < 1 or self.m2 < 1:
            raise ValueError(f"grid sizes must be >= 1, got {(self.n, self.m1, self.m2)}")
        if not self.tau > 0:
            raise ValueError(f"sampling interval must be positive, got {self.tau}")

    @property
    def dim(self) -> int:
        """Total basis dimension (n+1)*m1*m2."""
        return (self.n + 1) * self.m1 * self.m2

    @property
    def ncells(self) -> int:
        return self.m1 * self.m2

    @property
    def block_size(self) -> int:
        return self.n + 1


@dataclass(frozen=True)
class QBox:
    """Support rectangle [a1, b1] x [a2, b2] of the parameter density."""

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if not (self.a1 < self.b1 and self.a2 < self.b2):
            raise ValueError(f"box bounds must be ordered: {self}")
        if self.a1 < Q1_FLOOR:
            raise ValueError(f"a1 = {self.a1} below diffusivity floor {Q1_FLOOR}")
        if self.a2 < 0:
            raise ValueError(f"a2 = {self.a2} must be nonnegative")

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)

    def contains(self, q1: float, q2: float) -> bool:
        return self.a1 <= q1 <= self.b1 and self.a2 <= q2 <= self.b2

    def require_within(self, q1_max: float, q2_max: float) -> None:
        """Check containment in the configured global bounding box."""
        if self.b1 > q1_max or self.b2 > q2_max:
            raise ValueError(
                f"box {self} exceeds global bounds q1 <= {q1_max}, q2 <= {q2_max}"
            )


def eta_mass_matrix(n: int) -> np.ndarray:
    """Gram matrix of the hat basis in L2(0, 1); tridiagonal, closed form."""
    h = 1.0 / n
    diag = np.full(n + 1, 2 * h / 3)
    diag[0] = diag[-1] = h / 3
    off = np.full(n, h / 6)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def eta_stiffness_matrix(n: int) -> np.ndarray:
    """Matrix of integrals of hat derivatives; tridiagonal, closed form."""
    h = 1.0 / n
    diag = np.full(n + 1, 2 / h)
    diag[0] = diag[-1] = 1 / h
    off = np.full(n, -1 / h)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
