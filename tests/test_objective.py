import numpy as np
import pytest

from conftest import loop_cost_and_gradient, per_cell_reference, pulse_input, random_rho

from popdiff.assembly import assemble
from popdiff.density import RhoParams
from popdiff.errors import DegenerateDensityError, SimulationDivergenceError
from popdiff.forward import Episode, population_system, simulate
from popdiff.grid import GridSpec
from popdiff.objective import (
    cost,
    episode_cost_and_gradient,
    gradient_adjoint,
    gradient_fd,
)
from popdiff.sampled import SampledSystem, build_sampled, build_sensitivities


def make_episodes(rho_true, spec, n_episodes=2, steps=40, noise=0.02, seed=0):
    """Observations from a reference parameter vector plus noise."""
    rng = np.random.default_rng(seed)
    sys = population_system(rho_true, spec)
    out = []
    for i in range(n_episodes):
        u = pulse_input(steps, spec.tau, onset_h=0.3 + 0.4 * i,
                        width_h=1.5 + 0.5 * i, height=0.8 + 0.2 * i)
        y = simulate(sys, u) + noise * rng.standard_normal(steps + 1)
        out.append(Episode(f"ep{i}", spec.tau, u, y))
    return out


@pytest.fixture
def fit_setup(rho_smooth):
    spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
    truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
    episodes = make_episodes(truth, spec)
    return spec, rho_smooth, episodes


class TestCost:
    def test_perfect_fit_costs_zero(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(30, spec_small.tau)
        y = simulate(sys, u)
        ep = Episode("exact", spec_small.tau, u, y)
        assert cost(rho_smooth, spec_small, [ep]) == 0.0

    def test_constant_offset(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(30, spec_small.tau)
        y = simulate(sys, u)
        c = 0.37
        ep = Episode("offset", spec_small.tau, u, y + c)
        assert cost(rho_smooth, spec_small, [ep]) == pytest.approx(31 * c * c)

    def test_continuity_in_rho(self, fit_setup):
        spec, rho, episodes = fit_setup
        c0 = cost(rho, spec, episodes)
        base = rho.as_array()
        gaps = []
        for h in (1e-2, 1e-4, 1e-6):
            rho_h = RhoParams.from_array(base + h * np.ones(9) / 3.0)
            gaps.append(abs(cost(rho_h, spec, episodes) - c0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4 * (1 + c0)

    def test_tau_mismatch_rejected(self, rho_smooth, spec_small):
        ep = Episode("bad", spec_small.tau * 2, np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            cost(rho_smooth, spec_small, [ep])

    def test_empty_episode_list_rejected(self, rho_smooth, spec_small):
        with pytest.raises(ValueError):
            cost(rho_smooth, spec_small, [])

    def test_gamma_floor_rejects_flat_density(self, spec_small):
        # A tight normal inside a huge box has node densities far below
        # the operational floor.
        rho = RhoParams(1e-6, 3.0, 0.0, 3.0, 1.5, 1.5, 0.02, 0.0, 0.02)
        ep = Episode("e", spec_small.tau, np.ones(6), np.zeros(7))
        with pytest.raises(DegenerateDensityError):
            cost(rho, spec_small, [ep])


class TestGradientAdjoint:
    def test_zero_residuals_zero_gradient(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(25, spec_small.tau)
        ep = Episode("exact", spec_small.tau, u, simulate(sys, u))
        report = gradient_adjoint(rho_smooth, spec_small, [ep])
        assert report.cost == 0.0
        np.testing.assert_array_equal(report.grad, 0.0)

    def test_matches_finite_differences(self, fit_setup):
        spec, rho, episodes = fit_setup
        adj = gradient_adjoint(rho, spec, episodes)
        fd = gradient_fd(rho, spec, episodes)
        assert adj.cost == pytest.approx(fd.cost, rel=1e-12)
        scale = np.abs(fd.grad).max()
        denom = np.maximum(np.maximum(np.abs(fd.grad), np.abs(adj.grad)), 1e-8 * scale)
        assert (np.abs(adj.grad - fd.grad) / denom).max() < 1e-5

    def test_agreement_across_random_params_and_grids(self):
        rng = np.random.default_rng(99)
        for spec in (GridSpec(n=3, m1=2, m2=2, tau=1 / 12),
                     GridSpec(n=5, m1=3, m2=2, tau=1 / 12)):
            for _ in range(5):
                rho = random_rho(rng)
                truth = random_rho(rng)
                episodes = make_episodes(truth, spec, n_episodes=2, steps=24)
                adj = gradient_adjoint(rho, spec, episodes)
                fd = gradient_fd(rho, spec, episodes)
                scale = np.abs(fd.grad).max()
                denom = np.maximum(
                    np.maximum(np.abs(fd.grad), np.abs(adj.grad)), 1e-8 * scale
                )
                assert (np.abs(adj.grad - fd.grad) / denom).max() < 1e-5

    def test_ragged_episodes_equal_per_episode_loops(self, rho_smooth):
        # Equal-length episodes share one stacked recursion; each episode's
        # cost and gradient still equal a one-step-at-a-time loop over that
        # episode alone, bit for bit, summed in episode order.
        spec = GridSpec(n=5, m1=3, m2=2, tau=1 / 12)
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        pool = make_episodes(truth, spec, n_episodes=5, steps=45, seed=4)
        episodes = [Episode(ep.id, ep.tau, ep.u[:steps], ep.y_obs[:steps + 1])
                    for ep, steps in zip(pool, (30, 45, 30, 12, 45))]
        ops = assemble(spec, rho_smooth, with_grad=True)
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        total, grad = 0.0, np.zeros(9)
        per_episode = []
        for ep in episodes:
            c, g = loop_cost_and_gradient(sys, ep.u, ep.y_obs)
            total += c
            grad += g
            per_episode.append((ep.id, c))
        report = gradient_adjoint(rho_smooth, spec, episodes)
        assert report.cost == total
        assert report.per_episode == per_episode
        np.testing.assert_array_equal(report.grad, grad)
        assert cost(rho_smooth, spec, episodes) == total
        for ep in episodes:
            c, g = episode_cost_and_gradient(sys, ep.u, ep.y_obs)
            c_loop, g_loop = loop_cost_and_gradient(sys, ep.u, ep.y_obs)
            assert c == c_loop
            np.testing.assert_array_equal(g, g_loop)

    def test_equals_loops_on_fresh_reference_arrays(self, rho_smooth):
        # The loops read per_cell_reference's operators and fresh
        # C-contiguous copies of the sensitivities, not the system the
        # objective built, so a change in the memory layout of the stored
        # sensitivities shows: a strided dA_blocks rounds the gradient's
        # contraction over it differently at n = 16.
        spec = GridSpec(n=16, m1=2, m2=2, tau=1 / 12)
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = make_episodes(truth, spec, n_episodes=3, steps=40, seed=2)
        ops = assemble(spec, rho_smooth, with_grad=True)
        A, Agen, Bhat, _, _ = per_cell_reference(ops, spec.tau)
        sens = build_sensitivities(ops, build_sampled(ops, spec.tau))
        sys = SampledSystem(
            block_size=ops.block_size, ncells=ops.ncells, tau=spec.tau,
            A_blocks=A, Agen_blocks=Agen, Bhat=Bhat, Chat=ops.Cvec.copy(),
            dA_blocks=np.array(sens.dA_blocks, order="C"),
            dBhat=np.array(sens.dBhat, order="C"), dChat=np.array(sens.dChat, order="C"),
        )
        total, grad = 0.0, np.zeros(9)
        for ep in episodes:
            c, g = loop_cost_and_gradient(sys, ep.u, ep.y_obs)
            total += c
            grad += g
        report = gradient_adjoint(rho_smooth, spec, episodes)
        assert report.cost == total
        np.testing.assert_array_equal(report.grad, grad)

    def test_episode_order_invariance(self, fit_setup):
        spec, rho, episodes = fit_setup
        fwd = gradient_adjoint(rho, spec, episodes)
        rev = gradient_adjoint(rho, spec, episodes[::-1])
        assert fwd.cost == pytest.approx(rev.cost, rel=1e-14)
        np.testing.assert_allclose(fwd.grad, rev.grad, rtol=1e-12)
        assert dict(fwd.per_episode) == pytest.approx(dict(rev.per_episode))

    def test_scalar_surrogate_hand_derived(self):
        # One parameter a entering through Ahat = exp(a tau); input gain
        # and output map held fixed.  Three-step episode, closed form.
        tau, a, b = 0.25, -1.3, 0.4
        ahat = np.exp(a * tau)
        sys = SampledSystem(
            block_size=1, ncells=1, tau=tau,
            A_blocks=np.array([[[ahat]]]),
            Agen_blocks=np.array([[[a]]]),
            Bhat=np.array([b]), Chat=np.array([1.0]),
            dA_blocks=np.array([[[[tau * ahat]]]]),
            dBhat=np.array([[0.0]]), dChat=np.array([[0.0]]),
        )
        u = np.array([1.0, 0.6, 0.2])
        y_obs = np.array([0.0, 0.1, 0.3, 0.2])
        x1 = b * u[0]
        x2 = ahat * x1 + b * u[1]
        x3 = ahat * x2 + b * u[2]
        dx2 = tau * ahat * b * u[0]
        dx3 = 2 * tau * ahat**2 * b * u[0] + tau * ahat * b * u[1]
        expected_cost = (
            y_obs[0] ** 2 + (x1 - y_obs[1]) ** 2
            + (x2 - y_obs[2]) ** 2 + (x3 - y_obs[3]) ** 2
        )
        expected_grad = 2 * (x2 - y_obs[2]) * dx2 + 2 * (x3 - y_obs[3]) * dx3
        c, g = episode_cost_and_gradient(sys, u, y_obs)
        assert c == pytest.approx(expected_cost, rel=1e-14)
        assert g[0] == pytest.approx(expected_grad, rel=1e-12)

    def test_dummy_parameter_has_exactly_zero_gradient(self, fit_setup):
        spec, rho, episodes = fit_setup
        ops = assemble(spec, rho, with_grad=True)
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        zero_block = np.zeros((1,) + sys.dA_blocks.shape[1:])
        sys.dA_blocks = np.concatenate([sys.dA_blocks, zero_block])
        sys.dBhat = np.vstack([sys.dBhat, np.zeros(sys.dim)])
        sys.dChat = np.vstack([sys.dChat, np.zeros(sys.dim)])
        _, g = episode_cost_and_gradient(sys, episodes[0].u, episodes[0].y_obs)
        assert g.shape == (10,)
        assert g[9] == 0.0


class TestGradientFd:
    def test_step_order_of_accuracy(self, fit_setup):
        # Central differences: halving the step shrinks the error ~4x.
        spec, rho, episodes = fit_setup
        exact = gradient_adjoint(rho, spec, episodes).grad
        err = {}
        for h in (4e-4, 2e-4):
            fd = gradient_fd(rho, spec, episodes, step=h).grad
            err[h] = np.linalg.norm(fd - exact)
        ratio = err[4e-4] / err[2e-4]
        assert 2.5 < ratio < 6.0

    def test_zero_residual_gradient_small(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(20, spec_small.tau)
        ep = Episode("exact", spec_small.tau, u, simulate(sys, u))
        fd = gradient_fd(rho_smooth, spec_small, [ep], step=1e-6)
        # At an exact global minimum the FD gradient is step^2-scale noise.
        assert np.abs(fd.grad).max() < 1e-7

    def test_step_validation(self, fit_setup):
        spec, rho, episodes = fit_setup
        with pytest.raises(ValueError):
            gradient_fd(rho, spec, episodes, step=0.0)

    @pytest.mark.parametrize("fn", [cost, gradient_adjoint, gradient_fd])
    def test_divergence_names_the_episode(self, rho_smooth, spec_small, fn):
        # gradcheck reports the error message; it has to say which episode.
        def episode(name, steps, height):
            return Episode(name, spec_small.tau, np.full(steps, height), np.zeros(steps + 1))

        big = episode("big", 400, 1.7e308)
        with pytest.raises(SimulationDivergenceError, match="^episode big: "):
            fn(rho_smooth, spec_small, [big])
        # The second of three diverges.  So does the third, which runs in
        # one stack with the first: the error still names the second.
        trio = [episode("ok", 20, 1.0), big, episode("late", 20, 1.7e308)]
        with pytest.raises(SimulationDivergenceError, match="^episode big: "):
            fn(rho_smooth, spec_small, trio)
