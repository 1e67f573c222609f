#!/usr/bin/env python3
"""Regenerate tests/reference/point_mass_mp50.npz, the 50-digit reference
of the point-mass responses and their q1-derivatives.

The point mass at q1, M_eta x' = -(e0 e0^T + q1 K_eta) x + e_n u, has
the generator G = G0 + q1 G1, G0 = -M_eta^{-1} e0 e0^T and
G1 = -M_eta^{-1} K_eta, and the input column beta_eta = M_eta^{-1} e_n;
its response to a unit pulse held over tau is g_k = e0^T Ahat^k bhat,
with Ahat = exp(G tau) and bhat = int_0^tau exp(G s) ds beta_eta.  This
script forms the model's float matrices M_eta and K_eta exactly in
mpmath, exponentiates the block

    [[G tau, G1 tau, 0       ],
     [0,     G tau,  beta tau],
     [0,     0,      0       ]]

with ``mpmath.expm`` at 50 significant digits (Van Loan 1978: its upper
blocks are dAhat/dq1, dbhat/dq1, Ahat and bhat), and iterates
g_k and dg_k/dq1 for k < STEPS.  Each point is computed again at 40
digits, and the script stops if the two differ by more than 1e-30 of the
response's largest value.  It takes about 30 s.

Run from the repository root:

    python3 scripts/make_point_mass_reference.py

The values do not depend on the machine, so there is no reason to rerun
it unless the grid, the points or the step count change.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
from popdiff.grid import Q1_FLOOR, eta_mass_matrix, eta_stiffness_matrix  # noqa: E402

OUT = ROOT / "tests" / "reference" / "point_mass_mp50.npz"
N_VALUES = (4, 8, 16)
Q1_VALUES = (Q1_FLOOR, 1e-3, 1e-2, 1.0, 1e2, 1e3)
TAU = 1 / 12
STEPS = 120
DIGITS = 50
CHECK_DIGITS = 40


def responses(n: int, q1: float, digits: int) -> list:
    """[g, dg]: g_k and dg_k/dq1 for k < STEPS as mpf values, computed with
    ``digits`` significant digits, of the point mass at q1."""
    with mpmath.workdps(digits):
        b = n + 1
        mass = mpmath.matrix(eta_mass_matrix(n).tolist())
        stiff = mpmath.matrix(eta_stiffness_matrix(n).tolist())
        damp = stiff * mpmath.mpf(q1)
        damp[0, 0] += 1
        minv = mpmath.inverse(mass)
        gen, g1 = -(minv * damp), -(minv * stiff)
        tau = mpmath.mpf(TAU)
        big = mpmath.zeros(2 * b + 1)
        for i in range(b):
            for j in range(b):
                big[i, j] = big[b + i, b + j] = gen[i, j] * tau
                big[i, b + j] = g1[i, j] * tau
            big[b + i, 2 * b] = minv[i, b - 1] * tau
        held = mpmath.expm(big)
        step = held[:2 * b, :2 * b]
        state = held[:2 * b, 2 * b]
        out = [[], []]
        for _ in range(STEPS):
            out[0].append(state[b])
            out[1].append(state[0])
            state = step * state
        return out


def main() -> int:
    arrays = {"n": np.array(N_VALUES), "q1": np.array(Q1_VALUES),
              "tau": np.array(TAU), "steps": np.array(STEPS)}
    for n in N_VALUES:
        table = np.empty((len(Q1_VALUES), 2, STEPS))
        for i, q1 in enumerate(Q1_VALUES):
            fine = responses(n, q1, DIGITS)
            coarse = responses(n, q1, CHECK_DIGITS)
            gap = max(max(abs(x - y) for x, y in zip(f, c)) / max(abs(x) for x in f)
                      for f, c in zip(fine, coarse))
            table[i] = [[float(x) for x in f] for f in fine]
            print(f"n={n} q1={q1:g}: {DIGITS} against {CHECK_DIGITS} digits "
                  f"{mpmath.nstr(gap, 2)}",
                  flush=True)
            if not gap <= 1e-30:
                print("the two precisions disagree", file=sys.stderr)
                return 1
        arrays[f"g_n{n}"], arrays[f"dg_n{n}"] = table[:, 0], table[:, 1]
    OUT.parent.mkdir(exist_ok=True)
    np.savez(OUT, **arrays)
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
