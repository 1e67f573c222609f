"""Shared fixtures: random feasible parameter vectors, canonical inputs,
quadrature oracles and the golden-file comparison used across the suite."""

import re

import numpy as np
import pytest

from popdiff.density import RhoParams
from popdiff.grid import GridSpec


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
