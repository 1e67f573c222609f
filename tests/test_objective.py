import dataclasses

import numpy as np
import pytest

from conftest import (
    impulse_response,
    loop_cost_and_gradient,
    point_mass_hold,
    pulse_input,
    random_rho,
    toeplitz_gram,
    xcorr_gradient,
)

from popdiff import objective as objective_mod
from popdiff.assembly import assemble
from popdiff.dataio import PulseSpec, generate_synthetic
from popdiff.density import RhoParams
from popdiff.errors import DegenerateDensityError, SimulationDivergenceError
from popdiff.forward import Episode, convolve, population_system, simulate
from popdiff.grid import GridSpec
from popdiff.objective import (
    cost,
    episode_cost_and_gradient,
    evaluate,
    gradient_adjoint,
    gradient_fd,
    input_gram,
)
from popdiff.optimizer import fit
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

    @staticmethod
    def ragged_episodes(spec):
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        pool = make_episodes(truth, spec, n_episodes=5, steps=45, seed=4)
        return [Episode(ep.id, ep.tau, ep.u[:steps], ep.y_obs[:steps + 1])
                for ep, steps in zip(pool, (30, 45, 30, 12, 45))]

    def test_ragged_episode_costs_do_not_depend_on_stacking(self, rho_smooth):
        # Every episode is convolved with the one response h formed for
        # the longest episode; each episode's cost still equals its cost
        # evaluated alone, bit for bit, summed in episode order.
        spec = GridSpec(n=5, m1=3, m2=2, tau=1 / 12)
        episodes = self.ragged_episodes(spec)
        ops = assemble(spec, rho_smooth, with_grad=True)
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        total, per_episode = 0.0, []
        for ep in episodes:
            c = cost(rho_smooth, spec, [ep])
            assert episode_cost_and_gradient(sys, ep.u, ep.y_obs)[0] == c
            total += c
            per_episode.append((ep.id, c))
        report = gradient_adjoint(rho_smooth, spec, episodes)
        assert report.cost == total
        assert report.per_episode == per_episode
        assert cost(rho_smooth, spec, episodes) == total

    def test_ragged_episodes_match_per_episode_loops(self, rho_smooth):
        # Against the one-step-at-a-time forward and adjoint loops: costs
        # to rounding, gradients within 1e-8 relative per component.
        spec = GridSpec(n=5, m1=3, m2=2, tau=1 / 12)
        episodes = self.ragged_episodes(spec)
        ops = assemble(spec, rho_smooth, with_grad=True)
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        total, grad = 0.0, np.zeros(9)
        for ep in episodes:
            c_loop, g_loop = loop_cost_and_gradient(sys, ep.u, ep.y_obs)
            total += c_loop
            grad += g_loop
            c, g = episode_cost_and_gradient(sys, ep.u, ep.y_obs)
            assert c == pytest.approx(c_loop, rel=1e-12)
            np.testing.assert_allclose(g, g_loop, rtol=1e-8, atol=0)
        report = gradient_adjoint(rho_smooth, spec, episodes)
        assert report.cost == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(report.grad, grad, rtol=1e-8, atol=0)

    @staticmethod
    def fresh_copies(rho, spec):
        ops = assemble(spec, rho, with_grad=True)
        sens = build_sensitivities(ops, build_sampled(ops, spec.tau))
        fresh = {name: np.array(getattr(sens, name), order="C")
                 for name in ("nodes", "weights", "dnodes", "dweights")}
        return sens, SampledSystem(n=spec.n, tau=spec.tau, **fresh)

    def test_gradient_on_fresh_reference_arrays(self, rho_smooth):
        # Fresh C-contiguous copies of the sampled system and its
        # sensitivities give the same cost and gradient, bit for bit: the
        # contraction does not follow the stored arrays' memory layout.
        spec = GridSpec(n=16, m1=2, m2=2, tau=1 / 12)
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = make_episodes(truth, spec, n_episodes=3, steps=40, seed=2)
        sens, sys = self.fresh_copies(rho_smooth, spec)
        for ep in episodes:
            c, g = episode_cost_and_gradient(sys, ep.u, ep.y_obs)
            c_built, g_built = episode_cost_and_gradient(sens, ep.u, ep.y_obs)
            assert c == c_built
            np.testing.assert_array_equal(g, g_built)

    def test_matches_loops_on_fresh_reference_arrays(self, rho_smooth):
        # The loops read fresh copies, not the system the objective built.
        spec = GridSpec(n=16, m1=2, m2=2, tau=1 / 12)
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = make_episodes(truth, spec, n_episodes=3, steps=40, seed=2)
        _, sys = self.fresh_copies(rho_smooth, spec)
        total, grad = 0.0, np.zeros(9)
        for ep in episodes:
            c, g = loop_cost_and_gradient(sys, ep.u, ep.y_obs)
            total += c
            grad += g
        report = gradient_adjoint(rho_smooth, spec, episodes)
        assert report.cost == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(report.grad, grad, rtol=1e-8, atol=0)

    def test_episode_order_invariance(self, fit_setup):
        spec, rho, episodes = fit_setup
        fwd = gradient_adjoint(rho, spec, episodes)
        rev = gradient_adjoint(rho, spec, episodes[::-1])
        assert fwd.cost == pytest.approx(rev.cost, rel=1e-14)
        np.testing.assert_allclose(fwd.grad, rev.grad, rtol=1e-12)
        assert dict(fwd.per_episode) == pytest.approx(dict(rev.per_episode))

    def test_scalar_surrogate_hand_derived(self, monkeypatch):
        # One parameter a, the node, entering through Ahat = exp(a tau);
        # input gain and readout weight held fixed.  The node's kernel is
        # replaced by g_k = b e^{a tau k}, with dg_k/da = tau k b e^{a tau k},
        # in both the responses and the slopes the objective reads.
        # Three-step episode, closed form.
        tau, a, b = 0.25, -1.3, 0.4
        ahat = np.exp(a * tau)

        def kernel(q1, n, tau_, count):
            steps = tau_ * np.arange(count)
            g = b * np.exp(np.outer(q1, steps))
            return g, steps * g

        monkeypatch.setattr(objective_mod, "unit_responses", lambda *args: kernel(*args)[0])
        monkeypatch.setattr(objective_mod, "unit_slopes", lambda *args: kernel(*args)[1])
        sys = SampledSystem(
            n=0, tau=tau, nodes=np.array([a]),
            weights=np.array([1.0]), dnodes=np.array([[1.0]]), dweights=np.array([[0.0]]),
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
        zero = np.zeros(len(sys.nodes))
        sys = dataclasses.replace(sys, dnodes=np.vstack([sys.dnodes, zero]),
                                  dweights=np.vstack([sys.dweights, zero]))
        _, g = episode_cost_and_gradient(sys, episodes[0].u, episodes[0].y_obs)
        assert g.shape == (10,)
        assert g[9] == 0.0


class TestJacobian:
    @staticmethod
    def setup(spec, steps):
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = make_episodes(truth, spec, n_episodes=3, steps=steps, seed=5)
        # Ragged lengths: the stacked rows must follow the episode order.
        episodes[1] = Episode("short", spec.tau, episodes[1].u[:steps // 2],
                              episodes[1].y_obs[:steps // 2 + 1])
        return episodes

    @pytest.mark.parametrize("spec", [GridSpec(4, 2, 2, 1 / 12), GridSpec(8, 4, 4, 1 / 12)],
                             ids=["n4m2", "n8m4"])
    def test_matches_central_differences_of_residuals(self, rho_smooth, spec):
        # The normal equations (J^T J, J^T r) against J_fd^T J_fd and
        # J_fd^T r, with J_fd the central differences of the residuals.
        episodes = self.setup(spec, 40)
        at = evaluate(rho_smooth, spec, episodes)
        jtj, jtr = at.normal_equations(input_gram(episodes))
        assert jtj.shape == (9, 9) and jtr.shape == (9,)
        assert at.residuals.shape == (sum(ep.steps + 1 for ep in episodes),)
        base = rho_smooth.as_array()
        fd = np.empty((at.residuals.size, 9))
        for k in range(9):
            h = 1e-6 * (1 + abs(base[k]))
            up, dn = base.copy(), base.copy()
            up[k] += h
            dn[k] -= h
            fd[:, k] = (evaluate(RhoParams.from_array(up), spec, episodes).residuals
                        - evaluate(RhoParams.from_array(dn), spec, episodes).residuals) / (2 * h)
        assert np.abs(jtj - fd.T @ fd).max() <= 1e-6 * np.abs(jtj).max()
        assert np.abs(jtr - fd.T @ at.residuals).max() <= 1e-6 * np.abs(jtr).max()

    def test_gradient_is_the_cross_correlation_contraction(self, rho_smooth):
        spec = GridSpec(8, 4, 4, 1 / 12)
        episodes = self.setup(spec, 40)
        at = evaluate(rho_smooth, spec, episodes)
        grad = at.gradient().grad
        np.testing.assert_array_equal(grad, 2.0 * at.normal_equations(input_gram(episodes))[1])
        ops = assemble(spec, rho_smooth, with_grad=True)
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        splits = np.cumsum([ep.steps + 1 for ep in episodes])[:-1]
        pairs = [(ep.u, r) for ep, r in zip(episodes, np.split(at.residuals, splits))]
        oracle = xcorr_gradient(sys, 40, pairs)
        assert np.abs(grad - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_linearization_holds_no_state(self, rho_smooth):
        # The evaluated rule holds no hidden state: the normal equations
        # are the same bits when asked for twice, and again after the
        # gradient.
        spec = GridSpec(8, 4, 4, 1 / 12)
        episodes = self.setup(spec, 40)
        at = evaluate(rho_smooth, spec, episodes)
        gram = input_gram(episodes)
        first = at.normal_equations(gram)
        again = at.normal_equations(gram)
        at.gradient()
        after = at.normal_equations(gram)
        for got in (again, after):
            for a, b in zip(got, first, strict=True):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_episodes", [1, 4, 9])
    def test_linearization_convolves_nothing(self, rho_smooth, monkeypatch, n_episodes):
        # The normal equations read the inputs only through the Gram
        # matrix and one np.correlate per episode with steps: no
        # np.convolve, whatever the episode count.
        spec = GridSpec(4, 2, 2, 1 / 12)
        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        episodes = make_episodes(truth, spec, n_episodes=n_episodes, steps=40, seed=6)
        episodes.append(Episode("empty", spec.tau, np.zeros(0), np.array([0.3])))
        at = evaluate(rho_smooth, spec, episodes)
        gram = input_gram(episodes)
        calls = {"convolve": 0, "correlate": 0}
        for name in calls:
            def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        at.normal_equations(gram)
        assert calls == {"convolve": 0, "correlate": n_episodes}


class TestInputGram:
    @staticmethod
    def ragged(lengths, seed=0):
        rng = np.random.default_rng(seed)
        return [Episode(f"e{i}", 1 / 12, rng.uniform(0.0, 2.0, mu), rng.normal(size=mu + 1))
                for i, mu in enumerate(lengths)]

    @pytest.mark.parametrize("lengths", [(9, 1, 0, 17, 4, 17), (1,), (0, 3), (120,) * 10],
                             ids=["ragged", "one-step", "zero-step", "fit-n8m4-sized"])
    def test_matches_the_explicit_toeplitz_sum(self, lengths):
        # Against sum_e T_e^T T_e built index by index, each shorter
        # episode in the leading block.
        episodes = self.ragged(lengths)
        count = max(lengths)
        gram = input_gram(episodes)
        oracle = toeplitz_gram([ep.u for ep in episodes], count)
        assert gram.shape == (count, count)
        assert np.abs(gram - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_zero_step_episodes_alone_give_an_empty_gram(self):
        assert input_gram(self.ragged((0, 0))).shape == (0, 0)

    def test_repeated_episodes_scale_the_normal_equations(self, rho_smooth):
        # Each episode three times: three times G and three times J^T r,
        # to rounding, and the same J^T J.
        spec = GridSpec(4, 2, 2, 1 / 12)
        episodes = TestJacobian.setup(spec, 40)
        tripled = [ep for ep in episodes for _ in range(3)]
        gram, gram3 = input_gram(episodes), input_gram(tripled)
        assert np.abs(gram3 - 3 * gram).max() <= 1e-14 * np.abs(3 * gram).max()
        jtj, jtr = evaluate(rho_smooth, spec, episodes).normal_equations(gram)
        jtj3, jtr3 = evaluate(rho_smooth, spec, tripled).normal_equations(gram3)
        assert np.abs(jtr3 - 3 * jtr).max() <= 1e-14 * np.abs(3 * jtr).max()
        assert np.abs(jtj3 - 3 * jtj).max() <= 1e-14 * np.abs(3 * jtj).max()


class TestZeroStepEpisode:
    def test_adds_its_lone_sample_and_nothing_else(self):
        # bands-n8's fit set plus a 0-step episode observed at 0.3: the cost
        # rises by exactly 0.3^2 = 0.09, the gradient keeps every bit, and
        # the fit from the benchmark's start still converges.
        spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
        truth = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
        start = RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)
        episodes = generate_synthetic(truth, spec, 4, 0.01, seed=3,
                                      pulse_spec=PulseSpec(duration_h=5.0))
        with_empty = episodes + [Episode("empty", spec.tau, np.zeros(0), np.array([0.3]))]
        base = gradient_adjoint(start, spec, episodes)
        report = gradient_adjoint(start, spec, with_empty)
        assert report.cost == base.cost + 0.09
        assert report.per_episode == base.per_episode + [("empty", 0.09)]
        np.testing.assert_array_equal(report.grad, base.grad)
        assert fit(with_empty, spec, start).status == "converged"


class TestNodeWeightContract:
    @pytest.mark.parametrize("moved", ["nodes", "weights"])
    def test_gradient_is_the_node_or_weight_derivative(self, fit_setup, moved):
        # The gradient reaches the parameters only through the nodes nu_c
        # and the weights omega_c: with dnodes (or dweights) the identity
        # and the other zero, the adjoint returns dJ/dnu (or dJ/domega).
        # Oracle: central differences of the cost with the test oracle's
        # hold (conftest.point_mass_hold) rebuilt at the moved nodes.
        spec, rho, episodes = fit_setup
        ep = episodes[0]
        ops = assemble(spec, rho, with_grad=True)
        w, w1, w2 = ops.moments
        sys = build_sensitivities(ops, build_sampled(ops, spec.tau))
        eye, zero = np.eye(spec.ncells), np.zeros((spec.ncells,) * 2)
        dnodes, dweights = (eye, zero) if moved == "nodes" else (zero, eye)
        sys = dataclasses.replace(sys, dnodes=dnodes, dweights=dweights)
        _, g = episode_cost_and_gradient(sys, ep.u, ep.y_obs)

        def cost_at(point):
            nodes, weights = point
            held = impulse_response(*point_mass_hold(nodes, spec.n, spec.tau), ep.steps)
            r = convolve(weights @ held[..., 0], ep.u)[0] - ep.y_obs
            return float(r @ r)

        base = np.stack([w1 / w, w2])
        k = 0 if moved == "nodes" else 1
        fd = np.empty(spec.ncells)
        for c in range(spec.ncells):
            h = 1e-6 * base[k, c]
            up, dn = base.copy(), base.copy()
            up[k, c] += h
            dn[k, c] -= h
            fd[c] = (cost_at(up) - cost_at(dn)) / (2 * h)
        assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()


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
        # The second of three diverges.  So does the third, but the episodes
        # run in list order: the error names the second.
        trio = [episode("ok", 20, 1.0), big, episode("late", 20, 1.7e308)]
        with pytest.raises(SimulationDivergenceError, match="^episode big: "):
            fn(rho_smooth, spec_small, trio)
