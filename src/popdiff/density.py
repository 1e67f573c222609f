"""Truncated bivariate normal parameter density.

The family is parameterized by the nine-vector
rho = (a1, b1, a2, b2, mu1, mu2, l11, l21, l22): a support rectangle, a
mean, and the lower-triangular factor L of the covariance Sigma = L L^T.
The normalizing constant is the integral of the untruncated normal pdf
over the rectangle, computed with tensor Gauss-Legendre quadrature (the
bivariate normal cdf has no elementary form and is deliberately avoided).

Derivative conventions: at a point strictly inside the box the density is
phi(q)/N(rho), so derivatives with respect to the mean and Cholesky
entries differentiate both phi and N, while derivatives with respect to
the support bounds see only the normalization (the moving-limit part of
the support derivative belongs to the integrals of the assembly layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDensityError, InvalidParameterError
from .grid import Q1_FLOOR, QBox

# Cholesky diagonal floor: keeps Sigma = LL^T safely positive definite
# during optimization.
L_FLOOR = 1e-4
# Below this much mass in the box the density is considered degenerate.
NORMALIZATION_FLOOR = 1e-12
# Operational lower bound on the density at quadrature nodes, scaled by
# the inverse box area; enforced by the objective layer, not here.
GAMMA_FLOOR_SCALE = 1e-10

PARAM_NAMES = ("a1", "b1", "a2", "b2", "mu1", "mu2", "l11", "l21", "l22")
DEFAULT_NORM_QUAD_ORDER = 24


@dataclass(frozen=True)
class QPoint:
    """One realization of the random pair (diffusivity q1, input gain q2)."""

    q1: float
    q2: float

    def __post_init__(self):
        if not self.q1 > 0:
            raise InvalidParameterError(f"q1 must be positive, got {self.q1}")


@dataclass(frozen=True)
class RhoParams:
    """Estimation vector: support bounds, mean, and Cholesky factor of Sigma."""

    a1: float
    b1: float
    a2: float
    b2: float
    mu1: float
    mu2: float
    l11: float
    l21: float
    l22: float

    def __post_init__(self):
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError(f"non-finite parameter vector {vals}")
        if not (self.a1 < self.b1 and self.a2 < self.b2):
            raise InvalidParameterError(
                f"support bounds must be ordered: a=({self.a1}, {self.a2}), "
                f"b=({self.b1}, {self.b2})"
            )
        if self.a1 < Q1_FLOOR:
            raise InvalidParameterError(f"a1 = {self.a1} below diffusivity floor {Q1_FLOOR}")
        if self.a2 < 0:
            raise InvalidParameterError(f"a2 = {self.a2} must be nonnegative")
        if self.l11 < L_FLOOR or self.l22 < L_FLOOR:
            raise InvalidParameterError(
                f"Cholesky diagonal ({self.l11}, {self.l22}) below floor {L_FLOOR}"
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a1, self.b1, self.a2, self.b2, self.mu1, self.mu2,
             self.l11, self.l21, self.l22]
        )

    @classmethod
    def from_array(cls, rho: np.ndarray) -> "RhoParams":
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (9,):
            raise InvalidParameterError(f"expected 9 parameters, got shape {rho.shape}")
        return cls(*(float(v) for v in rho))

    @property
    def box(self) -> QBox:
        return QBox(self.a1, self.b1, self.a2, self.b2)

    @property
    def mu(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])

    @property
    def chol(self) -> np.ndarray:
        return np.array([[self.l11, 0.0], [self.l21, self.l22]])


def gamma_floor(box: QBox) -> float:
    """Operational lower density bound for the given support box."""
    return GAMMA_FLOOR_SCALE / box.area


def sigma_from_l(rho: RhoParams) -> np.ndarray:
    """Covariance Sigma = L L^T from the Cholesky entries of rho."""
    l11, l21, l22 = rho.l11, rho.l21, rho.l22
    return np.array(
        [[l11 * l11, l11 * l21], [l11 * l21, l21 * l21 + l22 * l22]]
    )


def _sigma_inverse(rho: RhoParams) -> tuple[np.ndarray, float]:
    sig = sigma_from_l(rho)
    det = sig[0, 0] * sig[1, 1] - sig[0, 1] * sig[0, 1]
    if det <= 0:
        raise InvalidParameterError(f"covariance not positive definite: {sig}")
    inv = np.array([[sig[1, 1], -sig[0, 1]], [-sig[0, 1], sig[0, 0]]]) / det
    return inv, det


def _pdf(q1, q2, rho: RhoParams):
    """Untruncated bivariate normal pdf phi at (q1, q2), with Sigma^{-1}
    and u = Sigma^{-1} (q - mu); broadcasts.  Its one formulation makes
    value-only and gradient assemblies agree bit for bit."""
    sinv, det = _sigma_inverse(rho)
    d1 = np.asarray(q1, dtype=float) - rho.mu1
    d2 = np.asarray(q2, dtype=float) - rho.mu2
    # Absurd trial boxes overflow the quadratic form; exp(-inf) = 0 is
    # the right limit, so keep numpy quiet about it.
    with np.errstate(over="ignore"):
        u1 = sinv[0, 0] * d1 + sinv[0, 1] * d2
        u2 = sinv[0, 1] * d1 + sinv[1, 1] * d2
        quad = d1 * u1 + d2 * u2
        phi = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
    return phi, sinv, u1, u2


def phi_values(q1, q2, rho: RhoParams) -> np.ndarray:
    """Untruncated bivariate normal pdf at (q1, q2); broadcasts."""
    return _pdf(q1, q2, rho)[0]


def phi_with_grads(q1, q2, rho: RhoParams):
    """Pdf values plus their q- and theta-gradients.

    Returns (phi, dphi_dq, dphi_dtheta) where dphi_dq stacks the two
    spatial derivatives and dphi_dtheta the five derivatives with respect
    to (mu1, mu2, l11, l21, l22), each along a new leading axis.
    """
    phi, sinv, u1, u2 = _pdf(q1, q2, rho)
    dphi_dq = np.stack([-phi * u1, -phi * u2])

    # d log phi / d Sigma = G = (u u^T - Sigma^{-1}) / 2, and the chain
    # rule through Sigma = LL^T gives d log phi / d L_ab = 2 (G L)_ab.
    g11 = 0.5 * (u1 * u1 - sinv[0, 0])
    g12 = 0.5 * (u1 * u2 - sinv[0, 1])
    g22 = 0.5 * (u2 * u2 - sinv[1, 1])
    dl11 = 2 * (g11 * rho.l11 + g12 * rho.l21)
    dl21 = 2 * (g12 * rho.l11 + g22 * rho.l21)
    dl22 = 2 * g22 * rho.l22
    dphi_dtheta = np.stack([phi * u1, phi * u2, phi * dl11, phi * dl21, phi * dl22])
    return phi, dphi_dq, dphi_dtheta


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre nodes and weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _interval_nodes(lo: float, hi: float, order: int):
    x, w = gauss_legendre(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def normalization(rho: RhoParams, quad_order: int = DEFAULT_NORM_QUAD_ORDER) -> float:
    """Mass of the untruncated pdf inside the support box.

    Tensor Gauss-Legendre with quad_order nodes per axis; raises if the
    mass has effectively escaped the box.
    """
    x1, w1 = _interval_nodes(rho.a1, rho.b1, quad_order)
    x2, w2 = _interval_nodes(rho.a2, rho.b2, quad_order)
    phi = phi_values(x1[:, None], x2[None, :], rho)
    return require_mass(float(w1 @ phi @ w2), rho)


def require_mass(total: float, rho: RhoParams) -> float:
    """``total``, the pdf's mass in the support box by the caller's rule;
    raises if that mass has effectively escaped the box."""
    if total < NORMALIZATION_FLOOR:
        raise DegenerateDensityError(
            f"normalization {total:.3e} below floor {NORMALIZATION_FLOOR:.0e}; "
            f"box {rho.box} holds no mass of N(mu=({rho.mu1}, {rho.mu2}))"
        )
    return total


def normalization_grad(
    rho: RhoParams, quad_order: int = DEFAULT_NORM_QUAD_ORDER
) -> np.ndarray:
    """Gradient of the normalization with respect to all nine parameters.

    Theta components differentiate under the integral sign; support
    components are the boundary (moving-limit) terms.
    """
    x1, w1 = _interval_nodes(rho.a1, rho.b1, quad_order)
    x2, w2 = _interval_nodes(rho.a2, rho.b2, quad_order)
    _, _, dphi_dtheta = phi_with_grads(x1[:, None], x2[None, :], rho)
    grad = np.zeros(9)
    grad[4:] = np.einsum("i,kij,j->k", w1, dphi_dtheta, w2)

    edge1 = phi_values(np.array([rho.a1, rho.b1])[:, None], x2[None, :], rho) @ w2
    edge2 = w1 @ phi_values(x1[:, None], np.array([rho.a2, rho.b2])[None, :], rho)
    grad[0] = -edge1[0]
    grad[1] = edge1[1]
    grad[2] = -edge2[0]
    grad[3] = edge2[1]
    return grad


def _as_point(q) -> tuple[float, float]:
    if isinstance(q, QPoint):
        return q.q1, q.q2
    q1, q2 = q
    return float(q1), float(q2)


def eval_density(q, rho: RhoParams, quad_order: int = DEFAULT_NORM_QUAD_ORDER) -> float:
    """Truncated density at q: phi/normalization inside the box, else 0."""
    q1, q2 = _as_point(q)
    if not rho.box.contains(q1, q2):
        return 0.0
    return float(phi_values(q1, q2, rho)) / normalization(rho, quad_order)


def density_grad_rho(
    q, rho: RhoParams, quad_order: int = DEFAULT_NORM_QUAD_ORDER
) -> np.ndarray:
    """All nine parameter derivatives of the density at an interior point.

    The support components carry only the normalization derivative; the
    moving integration limits are the assembly layer's business.
    """
    q1, q2 = _as_point(q)
    box = rho.box
    if not (box.a1 < q1 < box.b1 and box.a2 < q2 < box.b2):
        raise ValueError(f"({q1}, {q2}) not strictly inside {box}")
    norm = normalization(rho, quad_order)
    ngrad = normalization_grad(rho, quad_order)
    phi, _, dphi_dtheta = phi_with_grads(q1, q2, rho)
    grad = -float(phi) / norm**2 * ngrad
    grad[4:] += dphi_dtheta.ravel() / norm
    return grad


def sample_array(rho: RhoParams, count: int, seed: int) -> np.ndarray:
    """(count, 2) array of i.i.d. draws from the truncated law.

    Rejection from the untruncated normal; deterministic for a given
    seed.  A probe batch guards against boxes in the far tail.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    chol = rho.chol
    mu = rho.mu
    box = rho.box
    out = np.empty((count, 2))
    got = 0
    batch = max(4096, 2 * count)
    first = True
    while got < count:
        z = rng.standard_normal((batch, 2))
        q = mu + z @ chol.T
        keep = (
            (q[:, 0] >= box.a1) & (q[:, 0] <= box.b1)
            & (q[:, 1] >= box.a2) & (q[:, 1] <= box.b2)
        )
        accepted = q[keep]
        if first:
            rate = accepted.shape[0] / batch
            if rate < 1e-4:
                raise DegenerateDensityError(
                    f"rejection sampler acceptance rate {rate:.2e} over a "
                    f"{batch}-draw probe; box {box} is in the far tail of "
                    f"N(({rho.mu1}, {rho.mu2}), LL^T)"
                )
            first = False
        take = min(accepted.shape[0], count - got)
        out[got:got + take] = accepted[:take]
        got += take
    return out


def sample(rho: RhoParams, count: int, seed: int) -> list[QPoint]:
    """I.i.d. QPoint draws from the truncated law; see :func:`sample_array`."""
    return [QPoint(float(q1), float(q2)) for q1, q2 in sample_array(rho, count, seed)]
