"""Shared fixtures: random feasible parameter vectors, canonical inputs,
quadrature oracles and the golden-file comparison used across the suite."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from popdiff.density import RhoParams
from popdiff.grid import GridSpec, QBox, eta_mass_matrix, eta_stiffness_matrix
from popdiff.sampled import node_modes


def random_rho(rng: np.random.Generator) -> RhoParams:
    """A generic feasible parameter vector with healthy mass in the box.

    Means sit in the middle of the box and the spreads are a moderate
    fraction of the box widths, so densities at box edges are small but
    not negligible (support gradients stay well conditioned).
    """
    a1 = rng.uniform(0.05, 0.4)
    w1 = rng.uniform(0.6, 1.4)
    a2 = rng.uniform(0.0, 0.4)
    w2 = rng.uniform(0.6, 1.4)
    mu1 = a1 + w1 * rng.uniform(0.35, 0.65)
    mu2 = a2 + w2 * rng.uniform(0.35, 0.65)
    l11 = w1 * rng.uniform(0.15, 0.3)
    l22 = w2 * rng.uniform(0.15, 0.3)
    l21 = rng.uniform(-0.3, 0.3) * l22
    return RhoParams(a1, a1 + w1, a2, a2 + w2, mu1, mu2, l11, l21, l22)


def interior_points(rho: RhoParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Points strictly inside the support box, 5% margin per side."""
    box = rho.box
    m1 = 0.05 * (box.b1 - box.a1)
    m2 = 0.05 * (box.b2 - box.a2)
    q1 = rng.uniform(box.a1 + m1, box.b1 - m1, count)
    q2 = rng.uniform(box.a2 + m2, box.b2 - m2, count)
    return np.column_stack([q1, q2])


def truncated_moments(rho: RhoParams, order: int = 48):
    """Quadrature oracle: mean and covariance of the truncated law."""
    from popdiff.density import phi_values

    x, w = np.polynomial.legendre.leggauss(order)
    h1 = 0.5 * (rho.b1 - rho.a1)
    h2 = 0.5 * (rho.b2 - rho.a2)
    x1 = 0.5 * (rho.a1 + rho.b1) + h1 * x
    x2 = 0.5 * (rho.a2 + rho.b2) + h2 * x
    w1 = h1 * w
    w2 = h2 * w
    phi = phi_values(x1[:, None], x2[None, :], rho)
    mass = w1 @ phi @ w2
    mean1 = (w1 * x1) @ phi @ w2 / mass
    mean2 = w1 @ phi @ (w2 * x2) / mass
    e11 = (w1 * x1**2) @ phi @ w2 / mass
    e22 = w1 @ phi @ (w2 * x2**2) / mass
    e12 = (w1 * x1) @ phi @ (w2 * x2) / mass
    mean = np.array([mean1, mean2])
    cov = np.array(
        [[e11 - mean1**2, e12 - mean1 * mean2],
         [e12 - mean1 * mean2, e22 - mean2**2]]
    )
    return mean, cov


# ---------------------------------------------------------- index oracles

def hat_eval(j: int, n: int, eta: float) -> float:
    """Value of the j-th linear hat function on the uniform n-mesh at eta.

    Support is [(j-1)/n, (j+1)/n] clipped to [0, 1], height 1 at j/n.
    """
    if not 0 <= j <= n:
        raise ValueError(f"hat index {j} out of range [0, {n}]")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta = {eta} outside [0, 1]")
    return max(0.0, 1.0 - n * abs(eta - j / n))


def qcell_bounds(axis: int, j_i: int, box: QBox, m_i: int) -> tuple[float, float]:
    """Bounds of the j_i-th uniform cell along parameter axis 1 or 2."""
    if axis == 1:
        lo, hi = box.a1, box.b1
    elif axis == 2:
        lo, hi = box.a2, box.b2
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    if not 1 <= j_i <= m_i:
        raise ValueError(f"cell index {j_i} out of range [1, {m_i}]")
    width = (hi - lo) / m_i
    return (lo + width * (j_i - 1), lo + width * j_i)


def flat_index(j: int, j1: int, j2: int, spec: GridSpec) -> int:
    """Flat position of basis function (j, j1, j2): eta-fastest, then q1
    cells, then q2 cells."""
    if not 0 <= j <= spec.n:
        raise ValueError(f"eta index {j} out of range [0, {spec.n}]")
    if not 1 <= j1 <= spec.m1:
        raise ValueError(f"q1 cell index {j1} out of range [1, {spec.m1}]")
    if not 1 <= j2 <= spec.m2:
        raise ValueError(f"q2 cell index {j2} out of range [1, {spec.m2}]")
    return j + (spec.n + 1) * ((j1 - 1) + spec.m1 * (j2 - 1))


@pytest.fixture
def rho_smooth() -> RhoParams:
    """Canonical moderate-spread parameter vector used by many tests."""
    return RhoParams(
        a1=0.2, b1=1.4, a2=0.3, b2=2.0,
        mu1=0.7, mu2=1.1, l11=0.18, l21=0.05, l22=0.25,
    )


@pytest.fixture
def spec_small() -> GridSpec:
    return GridSpec(n=4, m1=2, m2=2, tau=1 / 12)


def pulse_input(steps: int, tau: float, onset_h: float = 0.5,
                width_h: float = 2.0, height: float = 1.0) -> np.ndarray:
    """Canonical single box pulse on the uniform input grid."""
    t = np.arange(steps) * tau
    u = np.zeros(steps)
    u[(t >= onset_h) & (t < onset_h + width_h)] = height
    return u


def smooth_pulse_input(steps: int, tau: float, center_h: float = 2.0,
                       halfwidth_h: float = 1.5, height: float = 1.0) -> np.ndarray:
    """Raised-cosine bump; smooth in time for refinement studies."""
    t = np.arange(steps) * tau
    z = np.clip((t - center_h) / halfwidth_h, -1.0, 1.0)
    return height * 0.5 * (1 + np.cos(np.pi * z)) * (np.abs(z) < 1.0)


# ------------------------------------------------- per-episode references

def galerkin_blocks(ops):
    """The tensor-Galerkin operators of ``ops`` as (ncells, b, b) stacks and
    flat vectors: cell c's blocks are M_c = w_c M_eta,
    K_c = w_c e0 e0^T + w1_c K_eta, B_c = w2_c e_n and C_c = w_c e_0.
    Returns (M_blocks, K_blocks, Bvec, Cvec)."""
    b, ncells = ops.block_size, ops.ncells
    w, w1, w2 = ops.moments
    e00 = np.zeros((b, b))
    e00[0, 0] = 1.0
    M = w[:, None, None] * eta_mass_matrix(b - 1)
    K = w[:, None, None] * e00 + w1[:, None, None] * eta_stiffness_matrix(b - 1)
    Bvec, Cvec = np.zeros((ncells, b)), np.zeros((ncells, b))
    Bvec[:, -1] = w2
    Cvec[:, 0] = w
    return M, K, Bvec.reshape(-1), Cvec.reshape(-1)


def galerkin_generator(ops):
    """(ncells, b, b) generators -M_c^{-1} K_c from ``galerkin_blocks``,
    independent of the point-mass form of ``sampled``."""
    M_blocks, K_blocks, _, _ = galerkin_blocks(ops)
    return -np.linalg.solve(M_blocks, K_blocks)


def per_cell_reference(ops, tau):
    """The sampled operators and sensitivities one cell at a time, with
    2-D calls only, from ``galerkin_blocks``: each mass block is
    Cholesky-factorized, the generator is -M_c^{-1} K_c and the input
    column M_c^{-1} B_c.  The sensitivities take one solve and one
    augmented exponential per parameter direction dK + dM Agen, with dM,
    dK and dB built from the moment derivatives: the algorithm that the
    point-mass form in ``build_sampled`` and ``build_sensitivities``
    replaced."""
    b, ncells = ops.block_size, ops.ncells
    n_params = ops.dmoments.shape[1]
    M_blocks, K_blocks, Bvec, _ = galerkin_blocks(ops)
    bvec = Bvec.reshape(ncells, b)
    meta, keta = eta_mass_matrix(b - 1), eta_stiffness_matrix(b - 1)
    e00, en = np.zeros((b, b)), np.zeros(b)
    e00[0, 0] = en[-1] = 1.0
    dw, dw1, dw2 = (d[:, :, None, None] for d in ops.dmoments)
    dM = dw * meta
    dK = dw * e00 + dw1 * keta
    dbvec = dw2[..., 0] * en
    A = np.empty((ncells, b, b))
    Agen = np.empty((ncells, b, b))
    Bhat = np.empty((ncells, b))
    dA = np.empty((n_params, ncells, b, b))
    dBhat = np.empty((n_params, ncells, b))
    for c in range(ncells):
        factor = scipy.linalg.cho_factor(M_blocks[c])
        Agen[c] = -scipy.linalg.cho_solve(factor, K_blocks[c])
        gen = Agen[c]
        A[c] = scipy.linalg.expm(gen * tau)
        beta = scipy.linalg.cho_solve(factor, bvec[c])
        Bhat[c] = (A[c] - np.eye(b)) @ np.linalg.solve(gen, beta)
        gen_lu = scipy.linalg.lu_factor(gen)
        x = scipy.linalg.lu_solve(gen_lu, beta)
        for k in range(n_params):
            dgen = -scipy.linalg.cho_solve(
                factor, dK[k, c] + dM[k, c] @ gen
            )
            aug = np.block([[gen, dgen], [np.zeros((b, b)), gen]])
            dA[k, c] = scipy.linalg.expm(aug * tau)[:b, b:] if dgen.any() else 0.0
            dbeta = scipy.linalg.cho_solve(factor, dbvec[k, c] - dM[k, c] @ beta)
            dBhat[k, c] = dA[k, c] @ x + (A[c] - np.eye(b)) @ scipy.linalg.lu_solve(
                gen_lu, dbeta - dgen @ x
            )
    return A, Agen, Bhat.reshape(-1), dA, dBhat.reshape(n_params, -1)


# ---------------------------------------------------- 50-digit responses

# g_k and dg_k/dq1 of the point masses at n = 4, 8, 16 and q1 = 1e-6 ..
# 1e3, 120 steps of tau = 1/12, from 50-digit mpmath
# (scripts/make_point_mass_reference.py).
POINT_MASS_REFERENCE = Path(__file__).parent / "reference" / "point_mass_mp50.npz"
# The modal form's largest error against it at any q1, per n, relative to
# each response's largest magnitude.  Measured over g and dg: 8.0e-13,
# 2.0e-11 and 2.2e-7, the last at q1 = 1e-6 and 1e-3 (the slowest modes of
# the finest grid); on q1 in [1e-2, 1e2] it stays within 1e-9 at every n.
MODAL_REFERENCE_BOUND = {4: 1e-11, 8: 1e-9, 16: 1e-6}

# The response table (``sampled.table_rows``) against ``node_modes`` on q1
# in [1e-2, 1e2], relative to each response's largest value: at most
# 5.1e-13 on 3000 log-uniform q1 at n = 4, 6, 8 and 16 (120 steps, tau =
# 1/12).  Below 1e-2 at n = 16 the gap follows node_modes' own error
# (MODAL_REFERENCE_BOUND), not the interpolation's.
TABLE_BOUND = 2e-12
# The table's slopes dg/dq1 against ``modal_responses``' on the same q1,
# relative to each slope row's largest value: at most 3.0e-13, 6.4e-13,
# 1.5e-12 and 5.2e-12 at n = 4, 6, 8 and 16.
TABLE_SLOPE_BOUND = 2e-11
# The table's g and dg/dq1 against the modal form on q1 in [1e-2, 1e2] at
# tau = 1/60, 1/12, 1/4 and 1 (3000 log-uniform q1, 120 steps), per n.
# The largest gaps were 3.2e-12 (n = 4, dg at tau = 1), 6.9e-12 (n = 6,
# dg at tau = 1), 1.7e-11 (n = 8, dg at tau = 1) and, at n = 16, 5.7e-11
# (dg at tau = 1) away from tau = 1/60.  At n = 16 and tau = 1/60, near
# q1 = 1e-2, g differs by up to 7.5e-9: there the modal form itself errs
# by up to 6.0e-9 against the Van Loan tangent hold, the table by 2.8e-9.
TABLE_TAU_BOUND = {4: 1e-10, 6: 1e-10, 8: 1e-10, 16: 2e-8}


# ------------------------------------------------------- the hold oracle
#
# The point mass at q1, M_eta x' = -(e0 e0^T + q1 K_eta) x + e_n u, held
# over each interval tau, from dense solves and scipy's matrix
# exponential: an implementation that shares nothing with the modal form
# of ``sampled``.

def eta_operators(n):
    """(G0, G1, beta_eta): the point mass at q1 has the generator
    G0 + q1 G1 and the input column beta_eta, G0 = -M_eta^{-1} e0 e0^T,
    G1 = -M_eta^{-1} K_eta and beta_eta = M_eta^{-1} e_n, an (n+1, 1)
    column."""
    meta = eta_mass_matrix(n)
    e00 = np.zeros((n + 1, n + 1))
    e00[0, 0] = 1.0
    return (-np.linalg.solve(meta, e00), -np.linalg.solve(meta, eta_stiffness_matrix(n)),
            np.linalg.solve(meta, np.eye(n + 1)[:, n:]))


def zero_order_hold(gen, beta, tau):
    """(Ahat, Bhat) of x' = gen x + beta u with u held over each interval
    tau, for a (..., k, k) stack ``gen`` and a (..., k, 1) ``beta`` that
    broadcasts against it: the blocks of exp([[gen, beta], [0, 0]] tau)
    (Van Loan 1978), by ``scipy.linalg.expm`` one block at a time.  No
    solve with gen, whose conditioning grows as 1 / q1 at small q1."""
    gen = np.asarray(gen, dtype=float)
    k = gen.shape[-1]
    aug = np.zeros(gen.shape[:-2] + (k + 1, k + 1))
    aug[..., :k, :k] = gen
    aug[..., :k, k:] = beta
    held = np.array([scipy.linalg.expm(a * tau) for a in aug.reshape(-1, k + 1, k + 1)])
    held = held.reshape(aug.shape)
    return held[..., :k, :k], held[..., :k, k:]


def point_mass_hold(nodes, n, tau):
    """(Ahat, bhat) stacks, (len(nodes), n+1, n+1) and (len(nodes), n+1),
    of the point masses at q1 = ``nodes``."""
    g0, g1, beta = eta_operators(n)
    ahat, bhat = zero_order_hold(g0 + np.asarray(nodes)[:, None, None] * g1, beta, tau)
    return ahat, bhat[..., 0]


def impulse_response(A, b, count):
    """(..., count, k) array of A^j b for j < count, for stacks of blocks,
    one step at a time."""
    out = np.empty(b.shape[:-1] + (count, b.shape[-1]))
    x = b
    for j in range(count):
        out[..., j, :] = x
        x = np.einsum("...ij,...j->...i", A, x)
    return out


def tangent_hold(nodes, n, tau):
    """The Van Loan tangent hold of the point masses at q1 = ``nodes``: the
    zero-order hold of [[G, G1], [0, G]], G = G0 + q1 G1, with input
    [0; beta_eta] (Van Loan 1978).  Its state matrix is
    [[Ahat, dAhat/dq1], [0, Ahat]] and its input column
    [dbhat/dq1; bhat].  Returns the (len(nodes), 2b, 2b) and
    (len(nodes), 2b) stacks."""
    g0, g1, beta = eta_operators(n)
    b = n + 1
    gen = np.zeros((len(nodes), 2 * b, 2 * b))
    gen[:, :b, :b] = gen[:, b:, b:] = g0 + np.asarray(nodes)[:, None, None] * g1
    gen[:, :b, b:] = g1
    forcing = np.zeros((2 * b, 1))
    forcing[b:] = beta
    ahat, bhat = zero_order_hold(gen, forcing, tau)
    return ahat, bhat[..., 0]


def tangent_responses(nodes, n, tau, count):
    """(g, dg/dq1), each (len(nodes), count), of the point masses at
    ``nodes``: state 0 of the lower and of the upper half of the tangent
    hold's impulse response."""
    tangent = impulse_response(*tangent_hold(nodes, n, tau), count)
    return tangent[..., n + 1], tangent[..., 0]


def point_mass_blocks(sys):
    """(Ahat, bhat) stacks of the point masses at the system's nodes
    (``point_mass_hold``)."""
    return point_mass_hold(sys.nodes, sys.n, sys.tau)


def spectral_radius(sys):
    """The largest decay factor e^{-w tau} of any mode of the system's
    nodes, from ``sampled.node_modes`` at the nodes."""
    rates, _, _ = node_modes(sys.nodes, sys.n, sys.tau)
    return float(np.exp(-sys.tau * rates.min()))


def loop_simulate(sys, u):
    """One episode, one step at a time: the recursion x[j+1] = Ahat x[j] +
    bhat u[j] of the hold at the system's nodes (``point_mass_blocks``),
    read at state 0 with the weights; equal to ``forward.simulate`` to
    rounding.  Returns the outputs and the (mu+1, ncells, b) states."""
    ahat, bhat = point_mass_blocks(sys)
    x = np.zeros((len(sys.nodes), sys.n + 1))
    states = [x]
    for uj in u:
        x = np.einsum("cij,cj->ci", ahat, x) + bhat * uj
        states.append(x)
    return np.array([x[:, 0] @ sys.weights for x in states]), np.array(states)


def loop_cost_and_gradient(sys, u, y_obs):
    """One episode's cost and adjoint gradient, one step at a time, on a
    system carrying node and weight sensitivities.  The recursion is the
    hold at the system's nodes, and the node derivatives dAhat/dnu and
    dbhat/dnu are the upper blocks of ``tangent_hold`` there."""
    y, states = loop_simulate(sys, u)
    r = y - y_obs
    mu = len(u)
    ahat, _ = point_mass_blocks(sys)
    readout = np.zeros((len(sys.nodes), sys.n + 1))
    readout[:, 0] = sys.weights
    zetas = np.empty((mu,) + readout.shape)
    zeta = zetas[mu - 1] = 2.0 * r[mu] * readout
    for j in range(mu - 1, 0, -1):
        zeta = np.einsum("cji,cj->ci", ahat, zeta) + 2.0 * r[j] * readout
        zetas[j - 1] = zeta
    outer = np.einsum("jcb,jcd->cbd", zetas, states[:mu])
    input_sum = np.einsum("jcb,j->cb", zetas, u)
    b = sys.n + 1
    tangent_A, tangent_b = tangent_hold(sys.nodes, sys.n, sys.tau)
    dA, dbhat = tangent_A[:, :b, b:], tangent_b[:, :b]
    g_node = (np.einsum("cbd,cbd->c", dA, outer)
              + np.einsum("cb,cb->c", dbhat, input_sum))
    g_weight = 2.0 * (r @ states[:, :, 0])
    return float(r @ r), sys.dnodes @ g_node + sys.dweights @ g_weight


def xcorr_gradient(sys, count, episodes):
    """Parameter gradient by the cross-correlation contraction: with q the
    residual-input cross-correlation summed over the (input, residual)
    pairs ``episodes``, dJ/domega_c = g_c . q and dJ/dnu_c = omega_c
    (dg_c/dnu) . q, from ``tangent_responses`` at the system's nodes.  The
    contraction that ``objective`` ran before it formed the Jacobian."""
    xcorr = np.zeros(count)
    for u, r in episodes:
        mu = len(u)
        xcorr[:mu] += np.correlate(2.0 * r[1:], u, "full")[mu - 1:] if mu else 0.0
    g, dg = tangent_responses(sys.nodes, sys.n, sys.tau, count)
    g_node = sys.weights * (dg @ xcorr)
    g_weight = g @ xcorr
    return sys.dnodes @ g_node + sys.dweights @ g_weight


def input_map(u, count):
    """(len(u)+1, count) Toeplitz map T of the input ``u``, index by index:
    T[j+1, k] = u[j-k] for 0 <= k <= j, so that T h is ``u`` convolved
    with h, y[0] = 0 included."""
    t = np.zeros((len(u) + 1, count))
    for j in range(len(u)):
        for k in range(min(j + 1, count)):
            t[j + 1, k] = u[j - k]
    return t


def toeplitz_gram(inputs, count):
    """Input Gram matrix sum_e T_e^T T_e from the explicit ``input_map``s."""
    gram = np.zeros((count, count))
    for u in inputs:
        t = input_map(u, count)
        gram += t.T @ t
    return gram


# ------------------------------------------------------------------ goldens

# A float literal as repr() and json.dumps() write it: it has a decimal
# point or an exponent, which tells it apart from an integer.  The
# lookarounds keep digits inside names ("a1", "v1") out of the match.
_FLOAT_LITERAL = re.compile(
    rb"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])"
)
_FLOAT_MASK = b"<float>"

# Floats are written with repr(), so a last-bit rounding difference between
# BLAS kernels shows in the bytes.  Across the OpenBLAS core types measured
# (Prescott to SkylakeX) the outputs differ from the goldens by at most
# 1.5e-12 absolute and 1.2e-9 relative; an intentional change to the
# numerics moves values by far more than this bound.
GOLDEN_RTOL = 1e-8
GOLDEN_ATOL = 1e-12


def golden_mismatch(output: bytes, golden: bytes) -> str | None:
    """Why ``output`` does not match ``golden``, or None when it does.

    With every float literal masked the two must be byte-identical, which
    pins headers, column names, row count, JSON layout and key order,
    strings and integers.  Each float must then equal its golden value
    within ``GOLDEN_RTOL * |golden| + GOLDEN_ATOL``.
    """
    masked_out = _FLOAT_LITERAL.sub(_FLOAT_MASK, output).splitlines()
    masked_gold = _FLOAT_LITERAL.sub(_FLOAT_MASK, golden).splitlines()
    if masked_out != masked_gold:
        for line, (a, b) in enumerate(zip(masked_out, masked_gold), start=1):
            if a != b:
                return f"layout differs at line {line}: {a!r} != {b!r}"
        return f"line count {len(masked_out)} != {len(masked_gold)}"
    got = np.array([float(x) for x in _FLOAT_LITERAL.findall(output)])
    want = np.array([float(x) for x in _FLOAT_LITERAL.findall(golden)])
    bad = ~(np.abs(got - want) <= GOLDEN_RTOL * np.abs(want) + GOLDEN_ATOL)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        return f"float #{k} is {float(got[k])!r}, golden {float(want[k])!r}"
    return None


def golden_mismatches(run, goldens: dict, workdir) -> list[str]:
    """Run a CLI command twice and compare what it writes with the goldens.

    ``run(out_dir)`` runs the command so that it writes into ``out_dir``
    and returns its exit code; ``goldens`` maps each output file name to
    its golden file.  Both runs must exit 0 and write identical bytes, and
    each output must pass ``golden_mismatch``.  Returns the problems found,
    empty when everything matches.
    """
    problems = []
    outputs = []
    for attempt in ("first", "second"):
        out_dir = workdir / f"golden-{attempt}"
        out_dir.mkdir(parents=True)
        code = run(out_dir)
        if code != 0:
            problems.append(f"{attempt} run exited {code}")
        outputs.append({name: (out_dir / name).read_bytes() for name in goldens})
    for name, golden in goldens.items():
        if outputs[0][name] != outputs[1][name]:
            problems.append(f"{name}: the two runs wrote different bytes")
        why = golden_mismatch(outputs[0][name], golden.read_bytes())
        if why:
            problems.append(f"{name}: {why}")
    return problems
