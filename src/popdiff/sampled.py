"""Sampled-time system: a quadrature rule over one point-mass kernel.

Cell c's Galerkin blocks are M_c = w_c M_eta, K_c = w_c e0 e0^T +
w1_c K_eta, B_c = w2_c e_n and C_c = w_c e_0, so the cell is exactly the
single-q system at the node nu_c = w1_c / w_c, read with the weight
omega_c = w2_c: the population output is the quadrature rule
y = sum_c omega_c g(nu_c), where g(q1) is state 0 of the point mass
M_eta x' = -(e0 e0^T + q1 K_eta) x + e_n u at q1, with unit input gain.
``SampledSystem`` is that rule and nothing more: the depth n, the step
tau, the nodes and the weights, and, once ``build_sensitivities`` has
returned it, their parameter derivatives.  It is frozen; its nodes'
responses are read from the kernel where they are needed.

Modal form.  With M_eta = R^T R, the state y = R x of the point mass at
q1 obeys y' = -S y + r u, read out as l . y, with the symmetric positive
definite

    S(q1) = l l^T + q1 K~,   l = R^{-T} e0,  r = R^{-T} e_n,  K~ = R^{-T} K_eta R^{-1}

(``eta_symmetric_operators``).  One ``np.linalg.eigh`` of
S(nu_c) = V diag(w) V^T gives the node's response to an input held over
each interval tau in closed form,

    g_k = sum_i gamma_i e^{-w_i tau k},   gamma_i = (l.v_i)(r.v_i) phi(w_i),
    phi(w) = (1 - e^{-w tau}) / w,

and its nu-derivative by the Daleckii-Krein formula (Higham, Functions of
Matrices, 2008, ch. 3).  With B_ij = (l.v_i)(V^T K~ V)_ij (r.v_j), the
divided differences of phi(w) e^{-w tau k} separate over the
eigenvalues:

    dg_k/dnu = sum_i (delta_i - tau k eps_i) e^{-w_i tau k},
    delta_i = B_ii phi'(w_i) + phi(w_i) sum_{j != i} (B_ij + B_ji) / (w_i - w_j),
    eps_i = B_ii phi(w_i).

``node_modes`` makes one stacked eigendecomposition of the given q1 and
keeps the rates w, the row gamma and the projections l.V, r.V and D~V;
``derivative_rows`` forms delta and eps from those projections, with no
second decomposition.  ``modal_responses``, the kernel's one entry,
calls both, forms the factors e^{-w tau k} by doubling and returns g and
dg/dnu for any count, each entry one dot of fixed length: no matrix
exponential, no solve.  As q1 grows, a column mixes at once and its
response tends to the well-mixed one, (1 - e^{-tau}) e^{-tau k}, until
rounding in S(q1) itself leaves the slowest rate unresolved;
``node_modes`` raises ConditioningError from there (``NODE_ROUNDING``).

Response table.  Every response the package forms, a single-q draw's or
a population node's, reads g(q1) for q1 in [Q1_FLOOR, TABLE_TOP] from a
cache of this kernel instead of decomposing S(q1) per call:
``table_rows`` evaluates a piecewise Chebyshev interpolant in log10 q1
of g and of the log-derivative q1 dg/dq1, each piece built on first use
from one ``modal_responses`` at its Chebyshev points (``table_piece``).
The slope is interpolated from the modal dg/dq1, not differentiated from
the interpolant of g: at n = 16, on 1000 log-uniform q1 in [1e-6, 1e-2],
that derivative was off by 4.7e-3 of the slope's largest value, the
tabled slope by 3.9e-6, the modal form's own noise there.  Every sum
of both steps is one dot of fixed length, so a row is the same bits in
any stack and at any longer count.  ``unit_responses`` and
``unit_slopes`` serve any q1: rows inside the table's range from the
table, the others from ``modal_responses``.  ``build_sampled`` and
``build_sensitivities`` decompose nothing: the population response and
its derivative read their nodes' rows where they need them.

Sensitivities: every parameter reaches the output only through the
nodes and weights, so ``build_sensitivities`` returns the rule with the
(P, C) Jacobians dnu/drho and domega/drho; the nodes' slopes dg/dnu are
read with ``unit_slopes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import AssembledOperators
from .errors import ConditioningError, SingularOperatorError
from .grid import Q1_FLOOR, eta_mass_matrix


@dataclass(frozen=True)
class SampledSystem:
    """The population system as a quadrature rule: point masses of depth
    intervals n at the ``nodes``, read with the ``weights``, and their
    (P, len(nodes)) parameter derivatives once ``build_sensitivities`` has
    added them.  A node's responses are read from the kernel where they
    are needed (``unit_responses``, ``unit_slopes``)."""

    n: int
    tau: float
    nodes: np.ndarray           # (C,) diffusivity nu_c of each node
    weights: np.ndarray         # (C,) readout weight omega_c of each node
    dnodes: np.ndarray | None = None     # (P, C)
    dweights: np.ndarray | None = None   # (P, C)


@functools.cache
def eta_symmetric_operators(n: int):
    """(l, r, D~, K~) of the symmetric form S(q1) = l l^T + q1 K~ of the
    point mass, -G(q1) = R^{-1} S(q1) R with M_eta = R^T R: l = R^{-T} e0,
    r = R^{-T} e_n and K~ = D~^T D~ = R^{-T} K_eta R^{-1}, where
    D~ = D R^{-1} and D, with rows (e_i - e_{i+1}) / sqrt(h), is the
    difference factor K_eta = D^T D.  Cached per n, from one Cholesky
    factorization of the depth mass matrix; the arrays are read-only."""
    eye = np.eye(n + 1)
    diff = np.sqrt(n) * (eye[:-1] - eye[1:])
    factor = np.linalg.cholesky(eta_mass_matrix(n), upper=True)
    half = np.linalg.solve(factor.T, np.column_stack([eye[0], eye[n], diff.T]))
    left, right, dfac = half[:, 0], half[:, 1], np.ascontiguousarray(half[:, 2:].T)
    ktilde = dfac.T @ dfac
    for arr in (left, right, dfac, ktilde):
        arr.setflags(write=False)
    return left, right, dfac, ktilde


# phi'(w) = (tau e^{-x} - phi(w)) / w with x = w tau cancels as x -> 0,
# where both terms tend to tau, and the slow rates of a node near
# q1 = Q1_FLOOR are of order q1.  Below x = SERIES_BELOW it is summed from
# phi'(w) = tau^2 sum_{j>=0} (-1)^{j+1} (j+1) / (j+2)! x^j, whose terms
# beyond these 17 are below 1e-17 of the sum there; above it the direct
# form cancels at most a factor of 4.
SERIES_BELOW = 0.5
_SLOPE_SERIES = np.array([(-1) ** (j + 1) * (j + 1) / math.factorial(j + 2)
                          for j in range(17)])


def _phi_and_slope(rates: np.ndarray, tau: float):
    """phi(w) = (1 - e^{-w tau}) / w and its derivative phi'(w), w > 0."""
    x = rates * tau
    phi = -np.expm1(-x) / rates
    # the series is read only below SERIES_BELOW; clipping its argument
    # keeps it from overflowing at the rates of a huge q1
    slope = np.where(x < SERIES_BELOW,
                     tau * tau * np.polynomial.polynomial.polyval(np.minimum(x, SERIES_BELOW),
                                                                  _SLOPE_SERIES),
                     (tau * np.exp(-x) - phi) / rates)
    return phi, slope


# Forming S(q1) = l l^T + q1 K~ rounds it by about eps q1 |K~|, so each
# eigenvector errs by order eps, and the slowest rate, taken through the
# factor of S, picks up about q1 eps^2 |K~| against a scale of |l|^2.
# ``node_modes`` raises ConditioningError where q1 eps^2 |K~|_F >
# NODE_ROUNDING |l|^2: from q1 = 1.2e22, 4.6e21 and 1.7e21 at n = 4, 8
# and 16.  The estimate leaves out a factor that grows with n: up to the
# bound the responses stay within 1.3e-7, 4.4e-6 and 2.2e-5 of the
# well-mixed limit (relative to its largest value), and within 3.0e-9,
# 6.6e-8 and 1.1e-6 up to q1 = 1e20.
NODE_ROUNDING = 1e-8


@functools.cache
def largest_node(n: int) -> float:
    """The largest q1 that ``node_modes`` resolves at n:
    NODE_ROUNDING |l|^2 / (eps^2 |K~|_F)."""
    left, _, _, ktilde = eta_symmetric_operators(n)
    eps = np.finfo(float).eps
    return float(NODE_ROUNDING * (left @ left) / (eps * eps * np.linalg.norm(ktilde)))


def check_nodes(nodes: np.ndarray, n: int, tau: float) -> None:
    """ValueError unless tau > 0; ConditioningError naming the first of
    the ``nodes`` that is not finite or beyond the ``NODE_ROUNDING``
    bound."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    largest = largest_node(n)
    resolved = np.abs(nodes) <= largest  # false for nan
    if not resolved.all():
        i = int(np.argmin(resolved))
        raise ConditioningError(
            f"node {i} at q1 = {nodes[i]:.3e} is beyond {largest:.3e}, where "
            "rounding leaves its slowest rate unresolved")


def node_modes(nodes: np.ndarray, n: int, tau: float):
    """(rates, gamma, projections) of the point masses at q1 = ``nodes``,
    from one stacked ``np.linalg.eigh`` of S(q1) = V diag(w) V^T: the
    (len(nodes), b) rates w and row gamma = (l.V)(r.V) phi(w), and the
    projections (l.V, r.V, D~V) from which ``derivative_rows`` forms the
    rows of dg/dq1.

    Each rate is the Rayleigh quotient (l.v)^2 + q1 |D~ v|^2 of its
    eigenvector, taken through the factor of S: its relative error is
    about eps sqrt(cond S), where an eigenvalue from ``eigh`` is off by
    about eps |S|, too much for the slowest mode of a large q1.

    ValueError unless tau > 0; ConditioningError for a node that is not
    finite or beyond the ``NODE_ROUNDING`` bound.
    """
    check_nodes(nodes, n, tau)
    left, right, dfac, ktilde = eta_symmetric_operators(n)
    _, vecs = np.linalg.eigh(np.outer(left, left) + nodes[:, None, None] * ktilde)
    lv, rv, dv = left @ vecs, right @ vecs, dfac @ vecs
    rates = lv * lv + nodes[:, None] * np.vecdot(dv, dv, axis=-2)
    return rates, lv * rv * (-np.expm1(-rates * tau) / rates), (lv, rv, dv)


def derivative_rows(rates: np.ndarray, projections, tau: float):
    """(delta, eps), each (..., b): the rows of dg_k/dq1 =
    (delta - tau k eps) . e^{-w tau k}, from the rates and projections of
    ``node_modes``.  V^T K~ V is formed as (D~ V)^T (D~ V), for the same
    reason as the rates.

    The divided differences (B_ij + B_ji) / (w_i - w_j) stay accurate
    where two eigenvalues lie close.  Off the diagonal
    (V^T K~ V)_ij = -(l.v_i)(l.v_j) / q1, and two eigenvalues of the
    rank-one update l l^T of q1 K~ lie close only where one of them has
    a small l.v, so the weight B_ij + B_ji shrinks with the gap.
    """
    lv, rv, dv = projections
    bij = lv[:, :, None] * (np.swapaxes(dv, -1, -2) @ dv) * rv[:, None, :]
    diag = np.diagonal(bij, axis1=-2, axis2=-1)
    gap = rates[:, :, None] - rates[:, None, :]
    split = ((bij + np.swapaxes(bij, -1, -2)) / np.where(gap == 0, np.inf, gap)).sum(axis=-1)
    phi, slope = _phi_and_slope(rates, tau)
    return diag * slope + split * phi, diag * phi


def modal_responses(q1: np.ndarray, n: int, tau: float, count: int):
    """(g, dg), each (len(q1), count): g_k = gamma . e^{-w tau k} and
    dg_k/dq1 = (delta - tau k eps) . e^{-w tau k}, k < count, of the point
    masses at ``q1``, from ``node_modes`` and ``derivative_rows``.

    The powers e^{-w tau k} come by doubling, elementwise, z^{m+i} =
    z^i z^m for i < m with z^m squared from z, and each entry is one dot
    of fixed length against the three rows (gamma, delta, eps), so that
    entry k of a row does not depend on ``count`` or on the other rows."""
    rates, gamma, projections = node_modes(q1, n, tau)
    coefs = np.stack([gamma, *derivative_rows(rates, projections, tau)], axis=-2)
    z = np.exp(-tau * rates[:, None, :])
    powers = np.empty((count,) + z.shape)
    powers[:1] = 1.0
    power, m = z, 1
    while m < count:
        end = min(2 * m, count)
        np.multiply(powers[:end - m], power, out=powers[m:end])
        m *= 2
        if m < count:
            power = power * power
    rows = np.vecdot(powers, coefs)
    steps = np.arange(count)[:, None]
    return rows[..., 0].T, (rows[..., 1] - tau * steps * rows[..., 2]).T


# The draws and the nodes read g(q1) and q1 dg/dq1 from piecewise
# Chebyshev interpolants in log10 q1 on [Q1_FLOOR, TABLE_TOP]:
# PIECES_PER_DECADE pieces per decade, each the interpolant of degree
# TABLE_DEGREE through ``modal_responses`` at its Chebyshev extreme points
# (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013).
# At 120 steps of tau = 1/12 it is within 5.1e-13 (g) and 5.2e-12
# (dg/dq1) of the modal form on q1 in [1e-2, 1e2] at n = 4 to 16,
# relative to each row's largest value; below 1e-2 at n = 16 both are
# within 1.1e-6 (g) and 2.7e-6 (dg/dq1) of a Van Loan hold, the error of
# ``node_modes`` itself.  At tau = 1/60, 1/4 and 1 the gaps on
# [1e-2, 1e2] stay within 1.2e-11 (g) and 5.7e-11 (dg/dq1), except at
# n = 16 and tau = 1/60 near q1 = 1e-2, where the modal form itself errs
# by up to 6.0e-9 against the hold and the table by 2.8e-9.  Degrees 20
# to 32 measured the same for g at tau = 1/12; 28 keeps a margin.
TABLE_TOP = 1e3
PIECES_PER_DECADE = 2
TABLE_DEGREE = 28
_LOG_FLOOR = math.log10(Q1_FLOOR)
_TABLE_PIECES = round((math.log10(TABLE_TOP) - _LOG_FLOOR) * PIECES_PER_DECADE)
_CHEBYSHEV = np.cos(np.pi * np.arange(TABLE_DEGREE + 1) / TABLE_DEGREE)
# coefficients c = _COSINE f of the interpolant sum_m c_m T_m through the
# values f at _CHEBYSHEV: the discrete cosine transform, its first and
# last point and its first and last coefficient halved
_COSINE = (2 / TABLE_DEGREE) * np.cos(np.pi * np.outer(np.arange(TABLE_DEGREE + 1),
                                                       np.arange(TABLE_DEGREE + 1))
                                      / TABLE_DEGREE)
_COSINE[:, [0, -1]] /= 2
_COSINE[[0, -1]] /= 2
_COSINE.setflags(write=False)
# (n, tau, piece) -> read-only (count, 2, TABLE_DEGREE + 1) coefficients
# of g_k and of q1 dg_k/dq1, k < count, for the largest count asked for
# so far
_PIECES: dict = {}


def table_piece(n: int, tau: float, piece: int, count: int) -> np.ndarray:
    """(at least count, 2, TABLE_DEGREE + 1) Chebyshev coefficients of the
    unit responses g_k and of their log-derivatives q1 dg_k/dq1, k < count,
    on table piece ``piece``, whose x in [-1, 1] is log10 q1 =
    log10 Q1_FLOOR + (piece + (x + 1) / 2) / PIECES_PER_DECADE.

    Built on first use, and built again when a larger count is asked for,
    from one ``modal_responses`` at the piece's Chebyshev points: the
    log-derivative is interpolated from the modal dg/dq1, not
    differentiated from the interpolant of g.
    Coefficient m of either row is one dot of fixed length with its
    values, so it is the same bits at every count.
    """
    coefs = _PIECES.get((n, tau, piece))
    if coefs is None or coefs.shape[0] < count:
        q1 = 10.0 ** (_LOG_FLOOR + (piece + (_CHEBYSHEV + 1) / 2) / PIECES_PER_DECADE)
        g, dg = modal_responses(q1, n, tau, count)
        values = np.stack([g.T, (q1[:, None] * dg).T])
        # a (count, 2, 29) view of one (2, count, 29) block, so that the
        # draws, which read g alone, read it from contiguous rows
        coefs = np.vecdot(values[:, :, None, :], _COSINE).transpose(1, 0, 2)
        coefs.setflags(write=False)
        _PIECES[n, tau, piece] = coefs
    return coefs


def chebyshev_basis(x: np.ndarray) -> np.ndarray:
    """(len(x), TABLE_DEGREE + 1) values T_m(x) = cos(m arccos x) for x
    in [-1, 1], elementwise."""
    return np.cos(np.arccos(x)[:, None] * np.arange(TABLE_DEGREE + 1))


def table_rows(q1: np.ndarray, n: int, tau: float, count: int, kind: int) -> np.ndarray:
    """(len(q1), count) rows of the point masses at ``q1``, each in
    [Q1_FLOOR, TABLE_TOP], read from the table: the unit responses
    g_k(q1), k < count, for ``kind`` 0, and their derivatives dg_k/dq1
    for ``kind`` 1.  T_m at each row's x, then one dot of fixed length
    TABLE_DEGREE + 1 per row and k against the coefficients of the row's
    piece: a row is the same bits in any stack and at any longer count."""
    t = np.minimum(np.maximum((np.log10(q1) - _LOG_FLOOR) * PIECES_PER_DECADE, 0),
                   _TABLE_PIECES)
    piece = np.minimum(t.astype(int), _TABLE_PIECES - 1)
    basis = chebyshev_basis(2 * (t - piece) - 1)[:, None, :]
    out = np.empty((len(q1), count))
    for p in set(piece.tolist()):
        rows = piece == p
        out[rows] = np.vecdot(basis[rows], table_piece(n, tau, p, count)[:count, kind])
    if kind:
        out /= q1[:, None]
    return out


def _kernel_rows(q1: np.ndarray, n: int, tau: float, count: int, kind: int) -> np.ndarray:
    """(len(q1), count) rows of ``unit_responses`` (``kind`` 0) or of
    ``unit_slopes`` (``kind`` 1): ``table_rows`` inside [Q1_FLOOR,
    TABLE_TOP], ``modal_responses`` outside."""
    q1 = np.asarray(q1, dtype=float)
    check_nodes(q1, n, tau)
    inside = (q1 >= Q1_FLOOR) & (q1 <= TABLE_TOP)
    if inside.all():
        return table_rows(q1, n, tau, count, kind)
    out = np.empty((len(q1), count))
    out[inside] = table_rows(q1[inside], n, tau, count, kind)
    out[~inside] = modal_responses(q1[~inside], n, tau, count)[kind]
    return out


def unit_responses(q1: np.ndarray, n: int, tau: float, count: int) -> np.ndarray:
    """(len(q1), count) impulse responses at q2 = 1 of the point masses at
    the diffusivities ``q1``.  Rows in [Q1_FLOOR, TABLE_TOP] are read from
    the response table (``table_rows``); the others come from one stacked
    ``modal_responses``.  ConditioningError names the first row that is
    not finite or beyond the ``NODE_ROUNDING`` bound.  A row is the same
    bits in any stack and at any longer count."""
    return _kernel_rows(q1, n, tau, count, 0)


def unit_slopes(q1: np.ndarray, n: int, tau: float, count: int) -> np.ndarray:
    """(len(q1), count) derivatives dg/dq1 of the ``unit_responses`` of the
    point masses at ``q1``, from the same table pieces or the same
    ``modal_responses``.  A row is the same bits in any stack and at any
    longer count."""
    return _kernel_rows(q1, n, tau, count, 1)


def build_sampled(ops: AssembledOperators, tau: float) -> SampledSystem:
    """The population system's nodes and weights from the cell moments;
    tau > 0.

    Node c sits at q1 = nu_c = w1_c / w_c and is read with the weight
    omega_c = w2_c.  SingularOperatorError names the first cell with no
    mass, whose node is undefined; the nodes are checked here
    (``check_nodes``), so a ConditioningError names the first unresolved
    node.
    """
    w, w1, w2 = ops.moments
    has_mass = w > 0  # false for nan
    if not has_mass.all():
        c = int(np.argmin(has_mass))
        raise SingularOperatorError(
            f"cell {c} has no mass (w = {w[c]:.3e}), so its node w1/w is undefined")
    n, nodes = ops.block_size - 1, w1 / w
    check_nodes(nodes, n, tau)
    return SampledSystem(n=n, tau=tau, nodes=nodes, weights=w2)


def build_sensitivities(ops: AssembledOperators, sys: SampledSystem) -> SampledSystem:
    """A new rule: ``sys`` with its node and weight sensitivities, per
    parameter dnodes = (dw1 - nu dw) / w and dweights = dw2, from the
    moment derivatives.  ``sys`` is left as it is."""
    if ops.dmoments is None:
        raise ValueError("operators were assembled without gradients")
    w = ops.moments[0]
    dw, dw1, dw2 = ops.dmoments
    return replace(sys, dnodes=(dw1 - sys.nodes * dw) / w, dweights=dw2)
