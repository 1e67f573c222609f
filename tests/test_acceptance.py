"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
on failure) and asserts the criterion at its stated tolerance.  All
randomness is seeded, so results are reproducible run to run.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    galerkin_blocks,
    galerkin_generator,
    golden_mismatches,
    point_mass_blocks,
    pulse_input,
    random_rho,
    spectral_radius,
)

from popdiff.cli import main as cli_main
from popdiff.dataio import PulseSpec, generate_synthetic
from popdiff.density import (
    RhoParams,
    density_grad_rho,
    eval_density,
    normalization,
    sample_array,
    sigma_from_l,
)
from popdiff.experiments import consistency_trend, refinement_trend
from popdiff.forward import (
    Episode,
    population_system,
    simulate,
    simulate_deterministic,
    simulate_deterministic_batch,
)
from popdiff.grid import GridSpec
from popdiff.objective import gradient_adjoint, gradient_fd
from popdiff.optimizer import FitOptions, fit
from popdiff.sampled import build_sampled
from popdiff.uncertainty import credible_band

GOLDEN = Path(__file__).parent / "goldens"

RHO_TRUE = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def make_noisy_episodes(rho, spec, n_episodes, steps, noise, rng):
    sys = population_system(rho, spec)
    out = []
    for i in range(n_episodes):
        u = pulse_input(steps, spec.tau, onset_h=0.3 + 0.4 * i, width_h=1.5,
                        height=0.9)
        y = simulate(sys, u) + noise * rng.standard_normal(steps + 1)
        out.append(Episode(f"acc-{i}", spec.tau, u, y))
    return out


def test_criterion_01_gradient_correctness():
    # The oracle is Richardson's extrapolation of two central differences,
    # (4 D(h/2) - D(h)) / 3 at h = 1e-4: truncation error O(h^4) and a
    # rounding error about 30x below a plain difference at step 1e-6, whose
    # reading on the smallest components (1e-4 of the largest) was noise.
    spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
    rng = np.random.default_rng(2024)
    episodes = make_noisy_episodes(random_rho(rng), spec, 2, 60, 0.01, rng)
    start = time.time()
    worst = 0.0
    h = 1e-4
    for _ in range(10):
        rho = random_rho(rng)
        adj = gradient_adjoint(rho, spec, episodes)
        fd = (4 * gradient_fd(rho, spec, episodes, step=h / 2).grad
              - gradient_fd(rho, spec, episodes, step=h).grad) / 3
        scale = np.abs(fd).max()
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(adj.grad)), 1e-8 * scale)
        worst = max(worst, float((np.abs(adj.grad - fd) / denom).max()))
    elapsed = time.time() - start
    report(1, "adjoint gradient vs finite differences",
           worst < 1e-5 and elapsed < 60,
           f"(worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_population_expectation_identity():
    tau = 1 / 12
    u = pulse_input(120, tau, onset_h=0.5, width_h=2.0, height=1.0)
    pop = {m: simulate(population_system(RHO_TRUE, GridSpec(16, m, m, tau)), u)
           for m in (2, 4, 8)}
    discrepancies = {m: [] for m in (2, 4, 8)}
    for seed in range(5):
        qs = sample_array(RHO_TRUE, 10_000, seed)
        mc = simulate_deterministic_batch(qs, 16, tau, u).mean(axis=0)
        for m in (2, 4, 8):
            discrepancies[m].append(float(np.abs(pop[m] - mc).max()))
    medians = {m: float(np.median(discrepancies[m])) for m in (2, 4, 8)}
    sup_fine = max(discrepancies[8])
    ok = sup_fine < 2e-2 and medians[2] > medians[4] > medians[8]
    report(2, "population output = expected single-q output", ok,
           f"(sup at m=8 {sup_fine:.2e}; medians {medians})")


def test_criterion_03_point_mass_limit():
    q_star = (0.7, 1.1)
    hw = 5e-4
    rho = RhoParams(q_star[0] - hw, q_star[0] + hw, q_star[1] - hw,
                    q_star[1] + hw, q_star[0], q_star[1], 1e-4, 0.0, 1e-4)
    spec = GridSpec(n=16, m1=2, m2=2, tau=1 / 12)
    u = pulse_input(60, spec.tau)
    pop = simulate(population_system(rho, spec), u)
    det = simulate_deterministic(q_star, spec.n, spec.tau, u)
    gap = float(np.abs(pop - det).max())
    report(3, "point-mass density collapses to single-q model", gap < 1e-3,
           f"(sup gap {gap:.2e})")


def test_criterion_04_galerkin_refinement():
    finest = GridSpec(n=16, m1=8, m2=8, tau=1 / 12)
    episodes = generate_synthetic(RHO_TRUE, finest, 4, 0.0, seed=11,
                                  pulse_spec=PulseSpec(duration_h=5.0))
    specs = [GridSpec(4, 2, 2, 1 / 12), GridSpec(8, 4, 4, 1 / 12), finest]
    trend = refinement_trend(RHO_TRUE, specs, episodes, FitOptions(max_iter=200))
    report(4, "fitted parameters stabilize under grid refinement",
           trend.monotone and trend.errors[-1] == 0.0,
           f"(distances {[round(e, 4) for e in trend.errors]})")


def test_criterion_05_synthetic_recovery():
    spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
    episodes = generate_synthetic(RHO_TRUE, spec, 10, 0.01, seed=44,
                                  pulse_spec=PulseSpec(duration_h=10.0))
    assert episodes[0].steps == 120
    # Mean and q1-spread start well off; the q2-spread starts within its
    # tolerance budget because the population output is linear in q2 and
    # its variance is informed only weakly (through truncation).
    init = RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)
    start = time.time()
    result = fit(episodes, spec, init, FitOptions(max_iter=200))
    elapsed = time.time() - start
    rho_hat = result.rho_hat
    mu_rel = np.abs([rho_hat.mu1 - RHO_TRUE.mu1, rho_hat.mu2 - RHO_TRUE.mu2])
    mu_rel /= np.array([RHO_TRUE.mu1, RHO_TRUE.mu2])
    s0 = sigma_from_l(RHO_TRUE)
    sig_rel = np.linalg.norm(sigma_from_l(rho_hat) - s0) / np.linalg.norm(s0)
    costs = [row[1] for row in result.cost_trace]
    monotone = all(b < a for a, b in zip(costs, costs[1:]))
    ok = mu_rel.max() < 0.10 and sig_rel < 0.50 and monotone and elapsed < 600
    report(5, "synthetic recovery at 1% noise", ok,
           f"(mu rel {np.round(mu_rel, 4)}, sigma rel {sig_rel:.3f}, "
           f"{len(costs) - 1} iters, {elapsed:.0f}s)")


def test_criterion_06_consistency_trend():
    spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 6)
    trend = consistency_trend(
        RHO_TRUE, spec, nu_levels=[2, 8, 32], seeds=5, noise_sigma=0.01,
        steps0=24, pulse_spec=PulseSpec(duration_h=4.0, width_h=(0.5, 1.5)),
        fit_options=FitOptions(max_iter=150),
    )
    report(6, "estimator error shrinks with data volume (fixed horizon)",
           trend.monotone,
           f"(medians {[round(e, 4) for e in trend.errors]})")


def test_criterion_07_stability():
    rng = np.random.default_rng(7)
    spec = GridSpec(n=8, m1=3, m2=3, tau=1 / 12)
    from popdiff.assembly import assemble

    worst_radius = 0.0
    worst_decay = 0.0
    for i in range(100):
        rho = random_rho(rng)
        ops = assemble(spec, rho)
        sys = build_sampled(ops, spec.tau)
        worst_radius = max(worst_radius, spectral_radius(sys))
        if i % 10 == 0:
            # Zero-input decay over a horizon scaled to the slowest mode of
            # the Galerkin generator -M_c^{-1} K_c.
            lam = np.linalg.eigvals(galerkin_generator(ops)).real.max()
            steps = int(np.ceil(np.log(1e13) / (abs(lam) * spec.tau))) + 20
            ahat, _ = point_mass_blocks(sys)
            x = x0 = rng.standard_normal(ahat.shape[:2])
            for _ in range(steps):
                x = np.einsum("cij,cj->ci", ahat, x)
            ratio = np.linalg.norm(x) / np.linalg.norm(x0)
            worst_decay = max(worst_decay, float(ratio))
    ok = worst_radius < 1.0 and worst_decay < 1e-12
    report(7, "sampled operator stability and zero-input decay", ok,
           f"(max radius {worst_radius:.6f}, max decay ratio {worst_decay:.2e})")


def test_criterion_08_density_layer():
    # Normalized integral.
    x, w = np.polynomial.legendre.leggauss(40)
    box = RHO_TRUE.box
    h1, h2 = 0.5 * (box.b1 - box.a1), 0.5 * (box.b2 - box.a2)
    x1 = 0.5 * (box.a1 + box.b1) + h1 * x
    x2 = 0.5 * (box.a2 + box.b2) + h2 * x
    vals = np.array([[eval_density((p1, p2), RHO_TRUE) for p2 in x2] for p1 in x1])
    integral = float((h1 * w) @ vals @ (h2 * w))

    # Gradient against central finite differences.
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        rho = random_rho(rng)
        b = rho.box
        for _ in range(20):
            q = (rng.uniform(b.a1 + 0.05 * (b.b1 - b.a1), b.b1 - 0.05 * (b.b1 - b.a1)),
                 rng.uniform(b.a2 + 0.05 * (b.b2 - b.a2), b.b2 - 0.05 * (b.b2 - b.a2)))
            an = density_grad_rho(q, rho)
            fd = np.empty(9)
            base = rho.as_array()
            for k in range(9):
                h = 1e-6 * (1 + abs(base[k]))
                up, dn = base.copy(), base.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (eval_density(q, RhoParams.from_array(up))
                         - eval_density(q, RhoParams.from_array(dn))) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-8 * scale)
            worst = max(worst, float((np.abs(an - fd) / denom).max()))

    # Sampled mean against the quadrature mean.
    n = 100_000
    pts = sample_array(RHO_TRUE, n, seed=5)
    se = pts.std(axis=0, ddof=1) / np.sqrt(n)
    from conftest import truncated_moments

    mean_quad, _ = truncated_moments(RHO_TRUE)
    mean_gap = np.abs(pts.mean(axis=0) - mean_quad)
    ok = (abs(integral - 1) < 1e-8 and worst < 1e-6 and np.all(mean_gap < 3 * se))
    report(8, "density normalization, gradient, and sampler", ok,
           f"(integral err {abs(integral - 1):.2e}, grad rel {worst:.2e}, "
           f"mean gap/SE {np.round(mean_gap / se, 2)})")


def test_criterion_09_sampled_operator_identities():
    import scipy.linalg

    spec = GridSpec(n=6, m1=3, m2=3, tau=1 / 12)
    from popdiff.assembly import assemble

    ops = assemble(spec, RHO_TRUE)
    sys = build_sampled(ops, spec.tau)

    # The Galerkin generator -M^{-1} K and input column M^{-1} B.
    M_blocks, _, Bvec, _ = galerkin_blocks(ops)
    beta = np.linalg.solve(scipy.linalg.block_diag(*M_blocks), Bvec)
    agen = scipy.linalg.block_diag(*galerkin_generator(ops))
    x, w = np.polynomial.legendre.leggauss(64)
    s = 0.5 * spec.tau * (x + 1)
    ws = 0.5 * spec.tau * w
    oracle = sum(wi * (scipy.linalg.expm(agen * si) @ beta)
                 for si, wi in zip(s, ws))
    # The Galerkin input column is s_c = w2_c / w_c times the node's.
    w, _, w2 = ops.moments
    ahat, node_bhat = point_mass_blocks(sys)
    bhat = ((w2 / w)[:, None] * node_bhat).reshape(-1)
    bhat_err = np.linalg.norm(bhat - oracle) / np.linalg.norm(oracle)

    one = scipy.linalg.block_diag(*ahat)
    two = scipy.linalg.block_diag(*point_mass_blocks(build_sampled(ops, 2 * spec.tau))[0])
    semi_err = np.linalg.norm(one @ one - two) / np.linalg.norm(two)

    # The tau -> 0 limit error scales with ||Agen||*tau, so the limit is
    # checked on the coarser grid whose generator norm keeps first-order
    # terms below the stated tolerance.
    ops_small = assemble(GridSpec(n=4, m1=2, m2=2, tau=1 / 12), RHO_TRUE)
    tiny = build_sampled(ops_small, 1e-10)
    tiny_ahat, tiny_bhat = point_mass_blocks(tiny)
    tiny_A = scipy.linalg.block_diag(*tiny_ahat)
    tau0_err = max(float(np.abs(tiny_A - np.eye(len(tiny_A))).max()),
                   float(np.abs(tiny_bhat).max()))

    ok = bhat_err < 1e-9 and semi_err < 1e-9 and tau0_err < 1e-8
    report(9, "discrete-time operator identities", ok,
           f"(input-op err {bhat_err:.2e}, semigroup err {semi_err:.2e}, "
           f"tau->0 err {tau0_err:.2e})")


def test_criterion_10_credible_bands():
    spec = GridSpec(n=8, m1=2, m2=2, tau=1 / 12)
    u = pulse_input(60, spec.tau)

    hw = 5e-4
    q_star = (0.7, 1.1)
    point = RhoParams(q_star[0] - hw, q_star[0] + hw, q_star[1] - hw,
                      q_star[1] + hw, q_star[0], q_star[1], 1e-4, 0.0, 1e-4)
    collapse = credible_band(point, spec, u, nsamples=200, seed=1)
    collapse_width = float(collapse.width.max())

    narrow = credible_band(RHO_TRUE, spec, u, level=0.5, nsamples=600, seed=2)
    wide = credible_band(RHO_TRUE, spec, u, level=0.9, nsamples=600, seed=2)
    nested = bool(np.all(narrow.lower >= wide.lower - 1e-14)
                  and np.all(narrow.upper <= wide.upper + 1e-14))

    a = credible_band(RHO_TRUE, spec, u, nsamples=300, seed=9)
    b = credible_band(RHO_TRUE, spec, u, nsamples=300, seed=9)
    deterministic = bool(np.array_equal(a.lower, b.lower)
                         and np.array_equal(a.upper, b.upper))

    band = credible_band(RHO_TRUE, spec, u, level=0.75, nsamples=1000, seed=3)
    inside = ((band.mean_output >= band.lower - 1e-12)
              & (band.mean_output <= band.upper + 1e-12)).mean()

    ok = (collapse_width < 1e-3 and nested and deterministic and inside >= 0.95)
    report(10, "credible bands", ok,
           f"(collapse width {collapse_width:.2e}, nested {nested}, "
           f"deterministic {deterministic}, mean inside {inside:.2%})")


def test_criterion_11_cli_contract(tmp_path, capsys):
    config = str(GOLDEN / "config.txt")
    rho = str(GOLDEN / "rho.json")
    episode = str(GOLDEN / "episode.csv")

    grad_code = cli_main(["gradcheck", config, rho, episode])
    capsys.readouterr()

    # Layout exactly, floats to the bound in conftest.golden_mismatch,
    # repeat runs bit-identical.
    sim_ok = not golden_mismatches(
        lambda d: cli_main(["simulate", config, rho, episode,
                            "--out", str(d / "simulate.csv")]),
        {"simulate.csv": GOLDEN / "simulate.golden.csv"}, tmp_path / "simulate")

    band_ok = not golden_mismatches(
        lambda d: cli_main(["bands", config, rho, episode, "--out", str(d / "bands.csv")]),
        {"bands.csv": GOLDEN / "bands.golden.csv"}, tmp_path / "bands")

    fit_ok = not golden_mismatches(
        lambda d: cli_main(["fit", config, episode,
                            "--init-rho", str(GOLDEN / "init_rho.json"),
                            "--out-dir", str(d)]),
        {"fit_result.json": GOLDEN / "fit_result.golden.json",
         "cost_trace.csv": GOLDEN / "cost_trace.golden.csv"}, tmp_path / "fit")
    capsys.readouterr()

    ok = grad_code == 0 and sim_ok and band_ok and fit_ok
    report(11, "CLI gradcheck and stable goldens", ok,
           f"(gradcheck exit {grad_code}, simulate {sim_ok}, bands {band_ok}, "
           f"fit {fit_ok})")
