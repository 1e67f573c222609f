"""Shared fixtures: random feasible parameter vectors, canonical inputs,
quadrature oracles and the golden-file comparison used across the suite."""

import re

import numpy as np
import pytest
import scipy.linalg

from popdiff.density import RhoParams
from popdiff.grid import GridSpec, QBox, eta_mass_matrix, eta_stiffness_matrix


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

def per_cell_reference(ops, tau):
    """The sampled operators and sensitivities one cell at a time, with
    2-D calls only.  The sensitivities take one solve and one augmented
    exponential per parameter direction dK + dM Agen, with dM, dK and dB
    built from the moment derivatives: the algorithm that the rank-one
    form in ``build_sensitivities`` replaced."""
    b, ncells = ops.block_size, ops.ncells
    n_params = ops.dmoments.shape[1]
    bvec = ops.Bvec.reshape(ncells, b)
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
        factor = scipy.linalg.cho_factor(ops.M_blocks[c])
        Agen[c] = -scipy.linalg.cho_solve(factor, ops.K_blocks[c])
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


def loop_simulate(sys, u):
    """One episode, one step at a time: the recursion and readout that
    ``forward.simulate`` stacks.  Same arithmetic, so equal bit for bit."""
    b = sys.block_size
    bhat = sys.Bhat.reshape(sys.ncells, b)
    x = np.zeros((sys.ncells, b))
    states = [x.reshape(-1)]
    for uj in u:
        x = np.einsum("cij,cj->ci", sys.A_blocks, x) + bhat * uj
        states.append(x.reshape(-1))
    return np.array([sys.Chat @ s for s in states]), np.array(states)


def loop_cost_and_gradient(sys, u, y_obs):
    """One episode's cost and adjoint gradient, one step at a time, on a
    system carrying sensitivity tensors."""
    y, states = loop_simulate(sys, u)
    r = y - y_obs
    mu, ncells, b = len(u), sys.ncells, sys.block_size
    forcing = 2.0 * r[:, None] * sys.Chat[None, :]
    xb = states.reshape(mu + 1, ncells, b)
    zetas = np.empty((mu, ncells, b))
    zeta = zetas[mu - 1] = forcing[mu].reshape(ncells, b)
    for j in range(mu - 1, 0, -1):
        zeta = np.einsum("cji,cj->ci", sys.A_blocks, zeta) + forcing[j].reshape(ncells, b)
        zetas[j - 1] = zeta
    outer = np.einsum("jcb,jcd->cbd", zetas, xb[:mu])
    input_sum = np.einsum("jcb,j->cb", zetas, u)
    resid_sum = 2.0 * np.einsum("j,jcb->cb", r, xb)
    grad = (np.einsum("kcbd,cbd->k", sys.dA_blocks, outer)
            + sys.dBhat @ input_sum.reshape(-1) + sys.dChat @ resid_sum.reshape(-1))
    return float(r @ r), grad


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
