import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import pulse_input, truncated_moments

import popdiff.objective as objective_mod
import popdiff.optimizer as optimizer_mod
from popdiff.dataio import PulseSpec, generate_synthetic
from popdiff.errors import PopdiffError
from popdiff.density import QPoint, RhoParams
from popdiff.forward import (
    Episode,
    population_system,
    simulate,
    simulate_deterministic,
    simulate_deterministic_batch,
)
from popdiff.grid import GridSpec
from popdiff.objective import cost, gradient_adjoint
from popdiff.optimizer import (
    Q1_GRID,
    FitOptions,
    chain_gradient,
    fit,
    fit_deterministic,
    initialize,
    minimize_lm,
    rho_to_working,
    working_to_rho,
)


def synthetic_population_episodes(rho0, spec, n_episodes, steps, noise, seed):
    rng = np.random.default_rng(seed)
    sys = population_system(rho0, spec)
    out = []
    for i in range(n_episodes):
        u = pulse_input(steps, spec.tau, onset_h=0.25 + 0.3 * (i % 3),
                        width_h=1.0 + 0.5 * (i % 2), height=0.6 + 0.15 * (i % 3))
        y = simulate(sys, u) + noise * rng.standard_normal(steps + 1)
        out.append(Episode(f"synth-{i}", spec.tau, u, y))
    return out


class TestWorkingTransform:
    def test_round_trip(self, rho_smooth):
        z = rho_to_working(rho_smooth)
        back = working_to_rho(z)
        np.testing.assert_allclose(back.as_array(), rho_smooth.as_array(), rtol=1e-12)

    def test_any_working_point_is_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.uniform(-3, 1, 9)
            z[0] = abs(z[0]) + 0.01
            z[2] = abs(z[2])
            rho = working_to_rho(z)
            assert rho.b1 > rho.a1 and rho.b2 > rho.a2
            assert rho.l11 > 0 and rho.l22 > 0

    def test_chain_rule_matches_finite_differences(self, rho_smooth, spec_small):
        episodes = synthetic_population_episodes(
            RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22),
            spec_small, 2, 30, 0.02, seed=1,
        )
        z = rho_to_working(rho_smooth)
        report = gradient_adjoint(rho_smooth, spec_small, episodes)
        g_z = chain_gradient(report.grad, z)
        for k in range(9):
            h = 1e-6 * (1 + abs(z[k]))
            up, dn = z.copy(), z.copy()
            up[k] += h
            dn[k] -= h
            fd = (
                cost(working_to_rho(up), spec_small, episodes)
                - cost(working_to_rho(dn), spec_small, episodes)
            ) / (2 * h)
            assert g_z[k] == pytest.approx(fd, rel=2e-5, abs=1e-9)


class TestFit:
    def test_immediate_return_at_minimizer(self, spec_small):
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec_small, 2, 30, 0.0, seed=2)
        result = fit(episodes, spec_small, init=rho0)
        assert result.status == "converged"
        assert len(result.cost_trace) == 1
        assert result.rho_hat is rho0
        # cost is float-roundoff noise from the working-coordinate round trip
        assert result.cost < 1e-20

    def test_cost_trace_strictly_decreasing(self, spec_small):
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec_small, 3, 36, 0.01, seed=3)
        init = RhoParams(0.15, 1.6, 0.2, 2.1, 0.9, 0.9, 0.25, 0.0, 0.3)
        result = fit(episodes, spec_small, init, FitOptions(max_iter=25))
        costs = [row[1] for row in result.cost_trace]
        assert len(costs) > 1
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert result.cost <= costs[0]

    def test_one_forward_pass_per_trial_point(self, spec_small, monkeypatch):
        # Each trial point that passes the density veto is sampled once; the
        # gradient at an accepted point reuses that system and only adds
        # the derivative tensors.
        assembled, sampled = [], []
        real_assemble, real_build_sampled = objective_mod.assemble, objective_mod.build_sampled

        def counting_assemble(*args, **kwargs):
            ops = real_assemble(*args, **kwargs)
            assembled.append(kwargs.get("with_grad", False))
            return ops

        def counting_build_sampled(*args, **kwargs):
            sampled.append(1)
            return real_build_sampled(*args, **kwargs)

        monkeypatch.setattr(objective_mod, "assemble", counting_assemble)
        monkeypatch.setattr(objective_mod, "build_sampled", counting_build_sampled)
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec_small, 3, 36, 0.01, seed=3)
        init = RhoParams(0.15, 1.6, 0.2, 2.1, 0.9, 0.9, 0.25, 0.0, 0.3)
        result = fit(episodes, spec_small, init, FitOptions(max_iter=10))
        assert len(result.cost_trace) > 1
        assert len(sampled) == assembled.count(False)
        assert assembled.count(True) == result.n_grad_evals == len(result.cost_trace)

    def test_determinism(self, spec_small):
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec_small, 2, 24, 0.01, seed=4)
        init = RhoParams(0.15, 1.6, 0.2, 2.1, 0.9, 0.9, 0.25, 0.0, 0.3)
        opts = FitOptions(max_iter=10)
        r1 = fit(episodes, spec_small, init, opts)
        r2 = fit(episodes, spec_small, init, opts)
        assert r1.cost_trace == r2.cost_trace
        np.testing.assert_array_equal(r1.rho_hat.as_array(), r2.rho_hat.as_array())

    def test_feasibility_of_result(self, spec_small):
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec_small, 2, 24, 0.05, seed=5)
        init = RhoParams(0.4, 1.0, 0.5, 1.5, 0.7, 1.0, 0.12, 0.0, 0.18)
        result = fit(episodes, spec_small, init, FitOptions(max_iter=15))
        rho = result.rho_hat  # construction re-validates all invariants
        assert rho.a1 < rho.b1 and rho.a2 < rho.b2

    def test_small_synthetic_recovery(self):
        spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
        rho0 = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.2, 0.04, 0.28)
        episodes = synthetic_population_episodes(rho0, spec, 4, 48, 0.01, seed=6)
        init = RhoParams(0.15, 1.7, 0.2, 2.2, 0.95, 0.85, 0.27, 0.0, 0.35)
        result = fit(episodes, spec, init, FitOptions(max_iter=120))
        # These data do not determine mu: at m=2x2 the output depends on
        # rho only through 8 cell functionals against 9 parameters, the
        # linearized standard error of mu1 is about 60, and lower costs
        # than the truth's are found far from mu1 = 0.7.  So check what the
        # data do determine: the fit, the noise-free outputs, and the mean
        # gain E[q2].  Criterion 05 checks mu on data that determine it.
        # E[q1] is weakly determined here too (up to 10% off over seeds 0-9).
        assert result.cost <= cost(rho0, spec, episodes), result.status
        gap = max(
            np.abs(simulate(population_system(result.rho_hat, spec), ep.u)
                   - simulate(population_system(rho0, spec), ep.u)).max()
            for ep in episodes
        )
        assert gap <= 0.01, (result.status, gap)  # the noise sigma
        mean_hat, _ = truncated_moments(result.rho_hat)
        mean_true, _ = truncated_moments(rho0)
        assert abs(mean_hat[1] - mean_true[1]) / mean_true[1] < 0.10, (
            result.status, mean_hat)


STATUSES = {"converged", "stalled-step", "max-iterations", "damping-exhausted",
            "degenerate-density"}


class TestPull:
    @staticmethod
    def setup(spec):
        rho0 = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = synthetic_population_episodes(rho0, spec, 3, 36, 0.01, seed=3)
        return episodes, RhoParams(0.15, 1.6, 0.2, 2.1, 0.9, 0.9, 0.25, 0.0, 0.3)

    def test_plain_least_squares_ends_with_a_documented_status(self, spec_small,
                                                               monkeypatch):
        episodes, init = self.setup(spec_small)
        monkeypatch.setattr(optimizer_mod, "PULL", 0.0)
        result = fit(episodes, spec_small, init)
        assert result.status in STATUSES
        assert result.penalty == 0.0
        assert result.least_squares == result.cost
        assert result.cost == pytest.approx(cost(result.rho_hat, spec_small, episodes),
                                            rel=1e-12)

    def test_penalty_is_reported_apart_from_least_squares(self, spec_small):
        episodes, init = self.setup(spec_small)
        result = fit(episodes, spec_small, init, FitOptions(max_iter=25))
        z = rho_to_working(result.rho_hat)
        z0 = rho_to_working(init)
        least_squares = cost(result.rho_hat, spec_small, episodes)
        # The least squares fall at every accepted step here, so the
        # weight is the noise estimate at rho_hat.
        n_residuals = sum(ep.y_obs.size for ep in episodes)
        alpha = optimizer_mod.PULL * least_squares / n_residuals
        assert result.penalty > 0
        assert result.penalty == pytest.approx(alpha * np.sum((z - z0) ** 2), rel=1e-6)
        assert result.least_squares == pytest.approx(least_squares, rel=1e-9)

    def test_far_start_reaches_plain_least_squares(self, monkeypatch):
        # The set-up of the bands-n8 benchmark's fit, started from the
        # default box: the pull must not hold a poor start back.  The
        # reference is the plain least-squares fit from the same start.
        spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
        truth = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
        episodes = generate_synthetic(truth, spec, 4, 0.01, seed=3,
                                      pulse_spec=PulseSpec(duration_h=5.0))
        a1, b1, a2, b2 = optimizer_mod.DEFAULT_BOX
        box = RhoParams(a1, b1, a2, b2, (a1 + b1) / 2, (a2 + b2) / 2,
                        (b1 - a1) / 6, 0.0, (b2 - a2) / 6)
        pulled = fit(episodes, spec, box)
        monkeypatch.setattr(optimizer_mod, "PULL", 0.0)
        plain = fit(episodes, spec, box)
        assert pulled.status == "converged"
        assert pulled.least_squares <= 1.001 * plain.least_squares, (
            pulled.least_squares, plain.least_squares, plain.status)


# How the fit ends on the fit set-ups of the benchmark workloads fit-n8m4,
# fit-n16m8 and bands-n8, on data seeds 0-11, from a fixed start: (status,
# iterations, cost evaluations) per seed.  A change to the fit's
# termination moves these pins on purpose.
SWEEP_TRUTH = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
SWEEP_START = RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)
C, S, X = "converged", "stalled-step", "max-iterations"
SWEEP = {
    # (n, m, episodes, duration_h): pins for data seeds 0-11
    (8, 4, 10, 10.0): [(C, 10, 10), (S, 24, 55), (C, 7, 7), (S, 41, 89),
                       (C, 10, 10), (C, 6, 6), (S, 35, 77), (C, 6, 6),
                       (C, 6, 6), (C, 12, 12), (C, 6, 6), (C, 9, 9)],
    (16, 8, 4, 5.0): [(C, 6, 6), (C, 10, 10), (C, 5, 5), (C, 5, 5),
                      (C, 7, 7), (C, 5, 5), (S, 25, 57), (C, 6, 6),
                      (X, 200, 401), (C, 5, 5), (C, 8, 9), (C, 8, 8)],
    (4, 2, 4, 5.0): [(C, 8, 8), (C, 5, 5), (C, 4, 4), (C, 5, 5),
                     (C, 5, 5), (C, 5, 5), (C, 12, 23), (C, 6, 6),
                     (X, 200, 400), (C, 9, 9), (C, 9, 9), (C, 17, 32)],
}


class TestSweep:
    @pytest.mark.parametrize("setup", list(SWEEP), ids=["fit-n8m4", "fit-n16m8", "bands-n8"])
    def test_endings_are_pinned(self, setup):
        n, m, n_episodes, duration_h = setup
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        endings = []
        for seed in range(12):
            episodes = generate_synthetic(SWEEP_TRUTH, spec, n_episodes, 0.01, seed=seed,
                                          pulse_spec=PulseSpec(duration_h=duration_h))
            result = fit(episodes, spec, SWEEP_START, FitOptions(max_iter=200))
            endings.append((result.status, len(result.cost_trace) - 1, result.n_cost_evals))
        assert endings == SWEEP[setup]


class TestRoundingRobustness:
    """The fit's end point must not follow the last bits of its normal
    equations."""

    def test_relative_noise_of_1e_12_moves_nothing(self, monkeypatch):
        # Criterion 05's set-up.  Every J^T J and J^T r (and so every
        # gradient) is multiplied by 1 + 1e-12 N(0, 1), with two noise seeds.
        spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
        truth = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
        episodes = generate_synthetic(truth, spec, 10, 0.01, seed=44,
                                      pulse_spec=PulseSpec(duration_h=10.0))
        init = RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)
        clean = fit(episodes, spec, init)
        assert clean.status == "converged"
        real_evaluate = optimizer_mod.evaluate_objective
        for seed in (0, 1):
            rng = np.random.default_rng(seed)

            def noisy_evaluate(*args, **kwargs):
                at = real_evaluate(*args, **kwargs)
                exact = at.normal_equations

                def normal_equations(gram):
                    return tuple(a * (1 + 1e-12 * rng.standard_normal(a.shape))
                                 for a in exact(gram))

                at.normal_equations = normal_equations
                return at

            monkeypatch.setattr(optimizer_mod, "evaluate_objective", noisy_evaluate)
            noisy = fit(episodes, spec, init)
            assert noisy.status == clean.status
            assert len(noisy.cost_trace) == len(clean.cost_trace)
            a, b = noisy.rho_hat.as_array(), clean.rho_hat.as_array()
            assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max(), seed


def normal_equations(jac, r):
    """The function ``minimize_lm``'s evaluations return: (J^T J, J^T r)."""
    return lambda: (jac.T @ jac, jac.T @ r)


class TestMinimizeStatus:
    """``converged`` only where the projected gradient vanishes."""

    @staticmethod
    def veto_left_half(x):
        # |r|^2 = (x0 + 1)^2 + x1^2 with x0 < 0 vetoed by the model layer,
        # not by the projection.
        if x[0] < 0:
            raise PopdiffError("vetoed")
        r = np.array([x[0] + 1, x[1]])
        return r, normal_equations(np.eye(2), r)

    def test_short_step_against_a_veto_is_stalled(self):
        # The damping grows against the veto while x0 creeps toward 0,
        # until an accepted step falls below XTOL with |g| still above 2.
        result = minimize_lm(self.veto_left_half, np.array([0.7, 1.0]), lambda x: x)
        assert result.status == "stalled-step"
        assert result.trace[-1][2] > 1.0

    def test_point_on_the_edge_of_a_veto_exhausts_the_damping(self):
        # From (1, 1) the first accepted step lands exactly on x0 = 0, and
        # every later damped step has a negative x0 component: all are
        # vetoed until lambda passes LAMBDA_MAX, with x1 still nonzero:
        # 21 trials, lambda from 1e-4 to 1e16.
        result = minimize_lm(self.veto_left_half, np.array([1.0, 1.0]), lambda x: x)
        assert result.status == "damping-exhausted"
        assert len(result.trace) == 2
        assert result.x[0] == 0.0 and result.x[1] != 0.0
        assert result.n_cost_evals == 1 + 21

    def test_minimum_on_a_bound_is_converged(self):
        # |r|^2 = (x0 + 1)^2 + 10 (x1 - 2)^2 with x0 >= 0 by projection:
        # the minimum (0, 2) has gradient (2, 0), whose projection
        # vanishes, and the trace reports that projected norm.
        jac = np.diag([1.0, np.sqrt(10.0)])

        def evaluate(x):
            r = jac @ (x - [-1.0, 2.0])
            return r, normal_equations(jac, r)

        result = minimize_lm(evaluate, np.array([1.0, 0.0]),
                             lambda x: np.maximum(x, [0.0, -np.inf]))
        assert result.status == "converged"
        np.testing.assert_allclose(result.x, [0.0, 2.0], atol=1e-6)
        assert result.trace[-1][2] < 1e-6 * (1 + result.cost)  # the stop test

    def test_gradient_only_at_the_start_and_accepted_points(self):
        # A cost evaluation is counted per trial, a linearization per
        # accepted point plus the start; rejected trials never call theirs.
        called = []

        def evaluate(x):
            r = x - 3.0
            return r, lambda: called.append(float(r @ r)) or normal_equations(np.eye(3), r)()

        result = minimize_lm(evaluate, np.zeros(3), lambda x: x, max_iter=20)
        assert result.status == "converged"
        assert result.n_grad_evals == len(called) == len(result.trace)
        assert called == [row[1] for row in result.trace]
        assert result.n_cost_evals >= len(result.trace) - 1

    def test_exhausted_damping_is_reported(self):
        # Every trial is vetoed: the damping grows past LAMBDA_MAX.
        def evaluate(x):
            if x[0] != 1.0:
                raise PopdiffError("vetoed")
            r = np.array([x[0] + 1])
            return r, normal_equations(np.eye(1), r)

        result = minimize_lm(evaluate, np.array([1.0]), lambda x: x)
        assert result.status == "damping-exhausted"
        assert len(result.trace) == 1 and result.n_grad_evals == 1
        assert result.n_cost_evals == 20  # lambda from 1e-3 past 1e16

    def test_pull_weight_follows_the_noise_estimate(self):
        # r = (x - 2) / 2 repeated 4 times, x0 = 0: with pull = 8 the
        # weight is alpha = 8 |r|^2 / 4 = 2 (x - 2)^2, and the minimum of
        # (x - 2)^2 + alpha x^2 is x = 2 / (1 + alpha).  From alpha = 8 at
        # the start the weight falls to the stable root alpha = 3 + 2 sqrt(2)
        # of (1 + alpha)^2 = 8 alpha, where x = 1 - 1/sqrt(2), the penalty
        # is 1/2 and the cost 2 + sqrt(2).
        def evaluate(x):
            r = np.full(4, (x[0] - 2.0) / 2)
            return r, normal_equations(np.full((4, 1), 0.5), r)

        result = minimize_lm(evaluate, np.zeros(1), lambda x: x, pull=8.0)
        assert result.status == "converged"
        np.testing.assert_allclose(result.x, [1 - 1 / np.sqrt(2)], rtol=1e-5)
        assert result.penalty == pytest.approx(0.5, rel=1e-5)
        assert result.cost == pytest.approx(2 + np.sqrt(2), rel=1e-6)
        costs = [row[1] for row in result.trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))


@pytest.fixture
def stack_rows(monkeypatch):
    """The row count of each single-q stack: each ``unit_responses`` call
    that ``optimizer`` makes."""
    real = optimizer_mod.unit_responses
    rows = []

    def counted(q1, n, tau, count):
        rows.append(len(q1))
        return real(q1, n, tau, count)

    monkeypatch.setattr(optimizer_mod, "unit_responses", counted)
    return rows


class TestFitDeterministic:
    def test_recovers_parameters_from_clean_data(self, spec_small):
        q_star = (0.65, 1.2)
        u = pulse_input(40, spec_small.tau)
        y = simulate_deterministic(q_star, spec_small.n, spec_small.tau, u)
        ep = Episode("clean", spec_small.tau, u, y)
        q_hat, c = fit_deterministic(ep, spec_small)
        assert abs(q_hat.q1 - q_star[0]) / q_star[0] < 1e-3
        assert abs(q_hat.q2 - q_star[1]) / q_star[1] < 1e-3
        assert c < 1e-10

    def test_zero_data_returns_init(self, spec_small):
        ep = Episode("flat", spec_small.tau, np.zeros(20), np.zeros(21))
        q_hat, c = fit_deterministic(ep, spec_small, init=QPoint(0.8, 0.9))
        assert c == 0.0
        assert (q_hat.q1, q_hat.q2) == (0.8, 0.9)

    def test_fitted_gain_scales_with_amplitude(self, spec_small):
        q_star = (0.7, 0.9)
        u = pulse_input(40, spec_small.tau)
        y = simulate_deterministic(q_star, spec_small.n, spec_small.tau, u)
        q_one, _ = fit_deterministic(Episode("x1", spec_small.tau, u, y), spec_small)
        q_two, _ = fit_deterministic(Episode("x2", spec_small.tau, u, 2 * y), spec_small)
        assert q_two.q2 == pytest.approx(2 * q_one.q2, rel=1e-3)
        assert q_two.q1 == pytest.approx(q_one.q1, rel=1e-3)


    @staticmethod
    def noisy_episode(spec, q=(0.65, 1.2), steps=60, seed=7):
        u = pulse_input(steps, spec.tau)
        y = simulate_deterministic(q, spec.n, spec.tau, u)
        y = y + 0.01 * np.random.default_rng(seed).standard_normal(y.shape)
        return Episode("noisy", spec.tau, u, y)

    @staticmethod
    def profile(ep, spec, q1):
        """||q2* g - y||^2 at the closed-form gain q2* >= 0, g the output at q2 = 1."""
        g = simulate_deterministic((q1, 1.0), spec.n, spec.tau, ep.u)
        q2 = max(g @ ep.y_obs / (g @ g), 0.0)
        r = q2 * g - ep.y_obs
        return float(r @ r)

    def test_cost_is_the_profile_minimum(self, spec_small):
        ep = self.noisy_episode(spec_small)
        q_hat, c = fit_deterministic(ep, spec_small)
        assert c == pytest.approx(self.profile(ep, spec_small, q_hat.q1), rel=1e-12)
        for q1 in [*Q1_GRID, q_hat.q1 * (1 - 1e-4), q_hat.q1 * (1 + 1e-4)]:
            assert c <= self.profile(ep, spec_small, q1), q1

    def test_gain_is_optimal_for_the_fitted_q1(self, spec_small):
        ep = self.noisy_episode(spec_small)
        q_hat, c = fit_deterministic(ep, spec_small)
        for factor in (1 - 1e-6, 1 + 1e-6):
            y = simulate_deterministic((q_hat.q1, q_hat.q2 * factor), spec_small.n,
                                       spec_small.tau, ep.u)
            r = y - ep.y_obs
            assert c <= r @ r, factor

    def test_anticorrelated_data_give_zero_gain(self, spec_small):
        # -g(0.65) is not anticorrelated with every response: the model's
        # slow-diffusion outputs (q1 below about 0.03 here) dip below zero,
        # and the fit gives them a positive gain.  So take the data with
        # the largest margin t such that <g, y> <= -t for every grid
        # response g, under |y| <= 1.
        u = pulse_input(40, spec_small.tau)
        grid = np.column_stack([Q1_GRID, np.ones_like(Q1_GRID)])
        g = simulate_deterministic_batch(grid, spec_small.n, spec_small.tau, u)
        steps = g.shape[1]
        lp = linprog(np.r_[np.zeros(steps), -1.0],
                     A_ub=np.hstack([g, np.ones((len(g), 1))]), b_ub=np.zeros(len(g)),
                     bounds=[(-1.0, 1.0)] * steps + [(None, 1.0)])
        y = lp.x[:steps]
        assert lp.status == 0 and (g @ y).max() < -1e-3
        q_hat, c = fit_deterministic(Episode("neg", spec_small.tau, u, y), spec_small,
                                     init=QPoint(0.8, 0.9))
        assert q_hat.q2 == 0.0
        assert q_hat.q1 == 0.8  # q1 is not determined by a zero response
        assert c == y @ y

    @pytest.mark.parametrize("q1_true", [Q1_GRID[0] / 10, Q1_GRID[-1] * 10])
    def test_minimum_beyond_the_grid_raises(self, spec_small, q1_true):
        # A minimum at an end of the q1 grid is not bracketed: the fit
        # raises rather than return the clipped end point, so initialize
        # falls back to its default box with a warning.
        u = pulse_input(40, spec_small.tau)
        y = simulate_deterministic((q1_true, 1.2), spec_small.n, spec_small.tau, u)
        ep = Episode("far", spec_small.tau, u, y)
        with pytest.raises(PopdiffError, match="not bracketed"):
            fit_deterministic(ep, spec_small)
        with pytest.warns(UserWarning, match="falling back"):
            initialize([ep, ep], spec_small)

    def test_solve_count_does_not_follow_last_bits(self, spec_small, stack_rows):
        # The Brent search stops at 1e-6 relative in q1, above the level
        # where the profile costs differ by rounding only.  On these data a
        # search to sqrt(eps) took 11 solves, and 17 after a 1e-14 change.
        # A solve is one trial point: a row of the stacks beyond the grid's.
        ep = self.noisy_episode(spec_small, seed=5)
        rng = np.random.default_rng(105)
        nudged = Episode("nudged", ep.tau, ep.u,
                         ep.y_obs * (1 + 1e-14 * rng.standard_normal(ep.y_obs.shape)))
        counts = []
        for episode in (ep, nudged):
            stack_rows.clear()
            fit_deterministic(episode, spec_small)
            counts.append(sum(stack_rows) - len(Q1_GRID))
        assert counts[0] == counts[1] > 0

    def test_repeat_calls_are_bit_identical(self, spec_small):
        ep = self.noisy_episode(spec_small)
        assert fit_deterministic(ep, spec_small) == fit_deterministic(ep, spec_small)


class TestInitialize:
    def episodes_from_points(self, points, spec, steps=36):
        out = []
        for i, q in enumerate(points):
            u = pulse_input(steps, spec.tau, onset_h=0.3, width_h=1.5)
            y = simulate_deterministic(q, spec.n, spec.tau, u)
            out.append(Episode(f"pt-{i}", spec.tau, u, y))
        return out

    def test_single_point_population(self, spec_small):
        q_star = (0.7, 1.1)
        episodes = self.episodes_from_points([q_star] * 3, spec_small)
        rho = initialize(episodes, spec_small)
        assert rho.mu1 == pytest.approx(q_star[0], rel=1e-3)
        assert rho.mu2 == pytest.approx(q_star[1], rel=1e-3)
        assert rho.b1 - rho.a1 < 0.05
        assert rho.b2 - rho.a2 < 0.05
        assert rho.l21 == 0.0

    def test_two_clusters_spanned(self, spec_small):
        episodes = self.episodes_from_points(
            [(0.4, 0.8), (0.42, 0.82), (1.0, 1.5), (1.02, 1.48)], spec_small
        )
        rho = initialize(episodes, spec_small)
        assert rho.a1 < 0.4 and rho.b1 > 1.02
        assert rho.a2 < 0.8 and rho.b2 > 1.5
        assert rho.mu1 == pytest.approx(0.71, abs=0.05)
        assert rho.l21 == 0.0

    def test_one_np_convolve_per_grid_row_and_per_trial(self, spec_small, monkeypatch):
        # Each episode has more steps than Q1_GRID has points, so its grid
        # profile and each Brent trial convolve one response at a time.
        episodes = self.episodes_from_points([(0.5, 0.9), (0.9, 1.3), (0.7, 1.1)],
                                             spec_small)
        assert min(ep.steps for ep in episodes) > len(Q1_GRID)
        real = optimizer_mod.simulate_deterministic
        calls = {"convolve": 0, "trials": 0}

        def trial(*args, **kwargs):
            calls["trials"] += 1
            return real(*args, **kwargs)

        def counted(*args, _real=np.convolve, **kwargs):
            calls["convolve"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(optimizer_mod, "simulate_deterministic", trial)
        monkeypatch.setattr(np, "convolve", counted)
        initialize(episodes, spec_small)
        assert calls["trials"] > 0
        assert calls["convolve"] == len(episodes) * len(Q1_GRID) + calls["trials"]

    def ragged_episodes(self, spec):
        return [self.episodes_from_points([q], spec, steps)[0]
                for q, steps in (((0.5, 0.9), 24), ((0.9, 1.3), 41), ((0.7, 1.1), 36))]

    @staticmethod
    def record_lockstep(monkeypatch):
        """The per-episode results of the lockstep searches that follow."""
        real = optimizer_mod._fit_lockstep
        results = []

        def recorded(*args):
            results.extend(real(*args))
            return results

        monkeypatch.setattr(optimizer_mod, "_fit_lockstep", recorded)
        return results

    def test_shared_grid_responses_change_no_bit(self, spec_small, monkeypatch, stack_rows):
        # initialize forms the Q1_GRID responses once, at the longest
        # episode's length; each episode's prefix fits it bit for bit as
        # responses formed for it alone do.
        episodes = self.ragged_episodes(spec_small)
        alone = [fit_deterministic(ep, spec_small) for ep in episodes]
        stack_rows.clear()
        shared = self.record_lockstep(monkeypatch)
        initialize(episodes, spec_small)
        assert stack_rows[0] == len(Q1_GRID)
        assert max(stack_rows[1:]) <= len(episodes)
        assert shared == alone

    def test_lockstep_equals_separate_fits(self, spec_small, monkeypatch, stack_rows):
        # Each round of initialize solves one trial point of every pending
        # search in one stack; a row of the stack is the bits it would be
        # alone, so every search takes its own steps and ends at its own
        # point.  The zero-data episode returns before any trial.
        u = pulse_input(30, spec_small.tau)
        episodes = [*self.ragged_episodes(spec_small),
                    Episode("flat", spec_small.tau, u, np.zeros(31))]
        alone, trials = [], []
        for ep in episodes:
            stack_rows.clear()
            alone.append(fit_deterministic(ep, spec_small))
            trials.append(len(stack_rows) - 1)
        assert stack_rows == [len(Q1_GRID)] and trials[-1] == 0
        assert min(trials[:-1]) > 0
        stack_rows.clear()
        lockstep = self.record_lockstep(monkeypatch)
        initialize(episodes, spec_small)
        assert lockstep == alone
        assert lockstep[-1] == (QPoint(1.0, 0.0), 0.0)
        assert len(stack_rows) == 1 + max(trials) < 1 + sum(trials)
        assert sum(stack_rows) == len(Q1_GRID) + sum(trials)

    def test_needs_two_episodes(self, spec_small):
        episodes = self.episodes_from_points([(0.7, 1.1)], spec_small)
        with pytest.raises(ValueError):
            initialize(episodes, spec_small)

    def test_fallback_on_fit_failure(self, spec_small):
        # The second episode's profile minimum lies beyond the q1 grid.
        episodes = self.episodes_from_points([(0.7, 1.1), (Q1_GRID[-1] * 10, 1.2)],
                                             spec_small)
        with pytest.warns(UserWarning, match="falling back") as caught:
            rho = initialize(episodes, spec_small, default_box=(0.1, 2.0, 0.1, 2.0))
        assert "episode pt-1 " in str(caught[0].message)
        assert (rho.a1, rho.b1, rho.a2, rho.b2) == (0.1, 2.0, 0.1, 2.0)
        assert rho.mu1 == pytest.approx(1.05)

    def test_fallback_names_the_first_failure_in_list_order(self, spec_small, monkeypatch):
        # pt-2's minimum lies beyond the q1 grid, so its search fails on the
        # grid, before any trial; pt-1's is made to diverge later, at its
        # first trial point.  The warning names pt-1, the first in list order.
        episodes = self.episodes_from_points(
            [(0.7, 1.1), (0.9, 1.3), (Q1_GRID[-1] * 10, 1.2)], spec_small)
        late = episodes[1]
        real = optimizer_mod.simulate_deterministic
        late_trials = []

        def diverging(q, n, tau, u, g=None):
            if u is late.u:
                late_trials.append(q)
                g = np.full_like(g, np.nan)
            return real(q, n, tau, u, g)

        monkeypatch.setattr(optimizer_mod, "simulate_deterministic", diverging)
        with pytest.warns(UserWarning, match="falling back") as caught:
            initialize(episodes, spec_small)
        assert len(late_trials) == 1
        message = str(caught[0].message)
        assert "episode pt-1 (output is not finite)" in message, message


# Runs in a fresh interpreter: this module itself imports scipy.optimize.
NO_SCIPY_OPTIMIZE = """
import sys
import popdiff
from popdiff.dataio import generate_synthetic

rho = popdiff.RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
spec = popdiff.GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
episodes = generate_synthetic(rho, spec, 3, 0.01, 1, mode="episode")
init = popdiff.initialize(episodes, spec)
popdiff.fit(episodes, spec, init, popdiff.FitOptions(max_iter=2))
popdiff.credible_band(init, spec, episodes[0].u, nsamples=100)
popdiff.gradient_fd(init, spec, episodes)
print("scipy.optimize" in sys.modules, "scipy" in sys.modules)
"""


def test_library_never_imports_scipy_optimize():
    # Importing scipy.optimize costs about 0.3 s and 20 MB of start-up, and
    # popdiff needs no scipy module at all: scipy.linalg alone took about
    # 0.14 s of a 0.21 s ``import popdiff``.
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_OPTIMIZE],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
