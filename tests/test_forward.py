import numpy as np
import pytest
import scipy.linalg

from conftest import loop_simulate, pulse_input, smooth_pulse_input

from popdiff.assembly import assemble
from popdiff.density import QPoint, RhoParams, sample_array
from popdiff.errors import ConditioningError, SimulationDivergenceError
from popdiff.forward import (
    BATCH_DRAWS,
    Episode,
    population_system,
    population_vs_montecarlo,
    simulate,
    simulate_deterministic,
    simulate_deterministic_batch,
)
from popdiff.grid import GridSpec, eta_mass_matrix, eta_stiffness_matrix
from popdiff.sampled import SampledSystem, build_sampled


def scalar_system(ahat, bhat, chat=1.0, tau=1.0):
    return SampledSystem(
        block_size=1, ncells=1, tau=tau,
        A_blocks=np.array([[[ahat]]]),
        Agen_blocks=np.array([[[np.log(ahat) / tau if ahat > 0 else -1.0]]]),
        Bhat=np.array([bhat]), Chat=np.array([chat]),
    )


class TestSimulate:
    def test_zero_input_zero_output(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        y = simulate(sys, np.zeros(30))
        np.testing.assert_array_equal(y, 0.0)

    def test_scalar_geometric_series(self):
        sys = scalar_system(0.5, 0.5)
        y = simulate(sys, np.ones(10))
        expected = 1.0 - 0.5 ** np.arange(11)
        np.testing.assert_allclose(y, expected, rtol=1e-14)

    def test_linearity(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        rng = np.random.default_rng(1)
        u1 = rng.uniform(0, 1, 24)
        u2 = rng.uniform(0, 1, 24)
        y = simulate(sys, u1 + 2.0 * u2)
        np.testing.assert_allclose(
            y, simulate(sys, u1) + 2.0 * simulate(sys, u2), atol=1e-13
        )

    def test_doubling_input_doubles_output(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(36, spec_small.tau)
        np.testing.assert_allclose(
            simulate(sys, 2 * u), 2 * simulate(sys, u), rtol=1e-14
        )

    def test_time_invariance(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(24, spec_small.tau)
        shift = 5
        y = simulate(sys, u)
        y_shifted = simulate(sys, np.concatenate([np.zeros(shift), u]))
        np.testing.assert_array_equal(y_shifted[:shift], 0.0)
        np.testing.assert_allclose(y_shifted[shift:], y, atol=1e-14)

    def test_blockwise_matches_dense_recursion(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(20, spec_small.tau)
        y, states = simulate(sys, u, return_states=True)
        A, B, C = scipy.linalg.block_diag(*sys.A_blocks), sys.Bhat, sys.Chat
        x = np.zeros(sys.dim)
        for j in range(len(u)):
            assert y[j] == pytest.approx(C @ x, abs=1e-13)
            np.testing.assert_allclose(states[j], x, atol=1e-13)
            x = A @ x + B * u[j]
        assert y[-1] == pytest.approx(C @ x, abs=1e-13)

    def test_divergence_guard(self):
        sys = scalar_system(2.0, 1.0)
        with pytest.raises(SimulationDivergenceError):
            simulate(sys, np.ones(1200))

    def test_stack_rows_equal_single_calls(self, rho_smooth):
        spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
        sys = population_system(rho_smooth, spec)
        us = np.random.default_rng(3).uniform(0.0, 1.0, (5, 40))
        y = simulate(sys, us)
        y_with_states, states = simulate(sys, us, return_states=True)
        assert y.shape == (5, 41) and states.shape == (5, 41, sys.dim)
        np.testing.assert_array_equal(y_with_states, y)
        for e, u in enumerate(us):
            y_one, states_one = simulate(sys, u, return_states=True)
            np.testing.assert_array_equal(simulate(sys, u), y[e])
            np.testing.assert_array_equal(y_one, y[e])
            np.testing.assert_array_equal(states_one, states[e])
            y_loop, states_loop = loop_simulate(sys, u)
            np.testing.assert_array_equal(y_one, y_loop)
            np.testing.assert_array_equal(states_one, states_loop)

    def test_divergence_names_the_stack_rows(self):
        sys = scalar_system(2.0, 1.0)
        us = np.zeros((3, 1200))
        us[1] = 1.0
        us[2, 5] = 1.0
        with pytest.raises(SimulationDivergenceError) as info:
            simulate(sys, us)
        assert info.value.rows == [1, 2]

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_no_numpy_warning(self, rho_smooth, spec_small):
        # Overflow, then inf - inf: only the error may surface.
        sys = population_system(rho_smooth, spec_small)
        for u in (np.full(400, 1.7e308), np.full((2, 400), 1.7e308)):
            with pytest.raises(SimulationDivergenceError):
                simulate(sys, u)
        with pytest.raises(SimulationDivergenceError):
            simulate(scalar_system(2.0, 1.0), np.ones(1200))


class TestDeterministic:
    def test_zero_input(self):
        y = simulate_deterministic((0.8, 1.2), n=8, tau=1 / 12, u=np.zeros(20))
        np.testing.assert_array_equal(y, 0.0)

    def test_mass_conservation_sealed_boundaries(self):
        # Test-only variant: drop the surface evaporation term and the
        # input; pure insulated diffusion preserves total mass.
        n, q1 = 16, 0.7
        meta = eta_mass_matrix(n)
        gen = -np.linalg.solve(meta, q1 * eta_stiffness_matrix(n))
        rng = np.random.default_rng(2)
        x0 = rng.uniform(0.5, 1.5, n + 1)
        mass0 = np.ones(n + 1) @ meta @ x0
        for t in (0.05, 0.5, 5.0):
            x = scipy.linalg.expm(gen * t) @ x0
            mass = np.ones(n + 1) @ meta @ x
            assert mass == pytest.approx(mass0, abs=1e-9)

    def test_refinement_convergence(self):
        tau = 1 / 12
        u = smooth_pulse_input(60, tau)
        q = (0.6, 1.0)
        y16 = simulate_deterministic(q, 16, tau, u)
        y32 = simulate_deterministic(q, 32, tau, u)
        y64 = simulate_deterministic(q, 64, tau, u)
        coarse_gap = np.abs(y16 - y32).max()
        fine_gap = np.abs(y32 - y64).max()
        assert fine_gap < coarse_gap

    def test_rejects_nonpositive_diffusivity(self):
        with pytest.raises(ValueError):
            simulate_deterministic((0.0, 1.0), 4, 0.1, np.zeros(3))

    @pytest.mark.parametrize("tau", [0.0, -0.1])
    def test_rejects_nonpositive_tau(self, tau):
        with pytest.raises(ValueError):
            simulate_deterministic((0.8, 1.2), 4, tau, np.ones(3))

    def test_overflowing_exponential_is_a_conditioning_error(self):
        with pytest.raises(ConditioningError):
            simulate_deterministic((1e300, 1.0), 4, 0.1, np.ones(3))

    def test_nan_input_diverges(self):
        u = pulse_input(24, 1 / 12)
        u[10] = np.nan
        with pytest.raises(SimulationDivergenceError):
            simulate_deterministic((0.8, 1.2), 4, 1 / 12, u)

    def test_qpoint_and_tuple_agree(self):
        u = pulse_input(36, 1 / 12)
        np.testing.assert_array_equal(
            simulate_deterministic(QPoint(0.8, 1.2), 8, 1 / 12, u),
            simulate_deterministic((0.8, 1.2), 8, 1 / 12, u),
        )


class TestDeterministicBatch:
    # 300 draws: one full block of BATCH_DRAWS and a partial one.
    NDRAWS = 300

    @pytest.fixture
    def draws(self, rho_smooth):
        assert self.NDRAWS % BATCH_DRAWS != 0
        return sample_array(rho_smooth, self.NDRAWS, seed=4)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_per_draw_solver(self, draws, n):
        # Each draw solved alone must match its row of the blocked solve:
        # checks the slicing into BATCH_DRAWS blocks and the partial block.
        tau = 1 / 12
        u = pulse_input(120, tau)
        batch = simulate_deterministic_batch(draws, n, tau, u)
        looped = np.array([simulate_deterministic(q, n, tau, u) for q in draws])
        assert batch.shape == looped.shape == (self.NDRAWS, 121)
        # Relative to each draw's largest output: early outputs are tiny
        # (the input has not diffused to the surface yet) and carry only
        # absolute rounding.
        rel = np.abs(batch - looped).max(axis=1) / np.abs(looped).max(axis=1)
        assert rel.max() <= 1e-12

    def test_zero_input_gives_exact_zeros(self, draws):
        y = simulate_deterministic_batch(draws, 8, 1 / 12, np.zeros(30))
        assert y.shape == (self.NDRAWS, 31)
        np.testing.assert_array_equal(y, 0.0)

    def test_empty_input_gives_initial_output(self, draws):
        y = simulate_deterministic_batch(draws, 8, 1 / 12, np.zeros(0))
        assert y.shape == (self.NDRAWS, 1)
        np.testing.assert_array_equal(y, 0.0)

    @pytest.mark.parametrize("q1", [0.0, -0.5])
    def test_rejects_nonpositive_diffusivity(self, draws, q1):
        bad = draws.copy()
        bad[BATCH_DRAWS + 3, 0] = q1
        with pytest.raises(ValueError):
            simulate_deterministic_batch(bad, 4, 0.1, np.zeros(3))

    def test_nan_input_diverges(self, draws):
        u = pulse_input(24, 1 / 12)
        u[10] = np.nan
        with pytest.raises(SimulationDivergenceError):
            simulate_deterministic_batch(draws, 4, 1 / 12, u)

    def test_overflowing_exponential_is_a_conditioning_error(self, draws):
        bad = draws.copy()
        bad[5, 0] = 1e300
        with pytest.raises(ConditioningError):
            simulate_deterministic_batch(bad, 4, 0.1, np.ones(3))

    def test_output_linear_in_q2(self, draws):
        tau = 1 / 12
        u = pulse_input(60, tau)
        doubled = draws * np.array([1.0, 2.0])
        y = simulate_deterministic_batch(draws, 8, tau, u)
        y2 = simulate_deterministic_batch(doubled, 8, tau, u)
        np.testing.assert_allclose(y2, 2 * y, rtol=1e-14, atol=1e-14 * np.abs(y).max())


def dense_single_q(q1, q2, n, tau, u, panels=32, nodes=32):
    """Single-q output from the model's matrices, one dense step at a time.

    M x' = -(e0 e0^T + q1 K_eta) x + e_n u and y = q2 x_0.  Ahat comes from
    scipy's expm of the dense generator; Bhat = int_0^tau exp(G s) ds beta
    from composite Gauss-Legendre (each panel's integral, shifted by
    exp(G h) per panel), not from the closed form (Ahat - I) G^{-1} beta.
    """
    mass = eta_mass_matrix(n)
    damping = np.zeros((n + 1, n + 1))
    damping[0, 0] = 1.0
    gen = -np.linalg.solve(mass, damping + q1 * eta_stiffness_matrix(n))
    beta = np.linalg.solve(mass, np.eye(n + 1)[n])
    h = tau / panels
    t, w = np.polynomial.legendre.leggauss(nodes)
    panel = h / 2 * sum(wk * scipy.linalg.expm(gen * h * (tk + 1) / 2) @ beta
                        for tk, wk in zip(t, w))
    shift = scipy.linalg.expm(gen * h)
    bhat = np.zeros(n + 1)
    for _ in range(panels):
        bhat = shift @ bhat + panel
    ahat = scipy.linalg.expm(gen * tau)
    x = np.zeros(n + 1)
    y = [q2 * x[0]]
    for uj in u:
        x = ahat @ x + bhat * uj
        y.append(q2 * x[0])
    return np.array(y)


class TestSingleQOracle:
    # simulate_deterministic_batch shares the zero-order hold and the
    # recursion with the population path, so the cell mixture no longer
    # checks them independently; this reference shares neither.
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_dense_reference(self, n):
        tau = 1 / 12
        u = pulse_input(60, tau)
        qs = np.array([[0.05, 1.0], [0.3, 0.6], [0.8, 1.3], [1.4, 0.9], [2.0, 1.7]])
        got = simulate_deterministic_batch(qs, n, tau, u)
        ref = np.array([dense_single_q(q1, q2, n, tau, u) for q1, q2 in qs])
        rel = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert rel.max() <= 1e-12


class TestCellMixture:
    # With piecewise-constant cells the population output is exactly the
    # mixture sum_c w2_c g(w1_c / w_c) of single-q outputs at q2 = 1.  The
    # two sides share the zero-order hold and the recursion but not the
    # tensor-Galerkin assembly, which this checks; TestSingleQOracle
    # checks the shared parts.
    @pytest.mark.parametrize("n,m1,m2", [(4, 1, 1), (4, 2, 2), (6, 3, 2),
                                         (8, 4, 4), (16, 8, 8)])
    def test_population_is_the_cell_mixture(self, rho_smooth, n, m1, m2):
        spec = GridSpec(n=n, m1=m1, m2=m2, tau=1 / 12)
        u = pulse_input(60, spec.tau)
        pop = simulate(population_system(rho_smooth, spec), u)
        w, w1, w2 = assemble(spec, rho_smooth).moments
        nodes = np.column_stack([w1 / w, np.ones_like(w)])
        mixture = w2 @ simulate_deterministic_batch(nodes, n, spec.tau, u)
        assert np.abs(pop - mixture).max() <= 1e-12 * np.abs(pop).max()


class TestPopulationVsMonteCarlo:
    def test_zero_input(self, rho_smooth):
        spec = GridSpec(n=6, m1=2, m2=2, tau=1 / 12)
        pop, mc, disc = population_vs_montecarlo(
            rho_smooth, spec, np.zeros(12), nsamples=50, seed=0
        )
        np.testing.assert_array_equal(pop, 0.0)
        np.testing.assert_array_equal(mc, 0.0)
        assert disc == 0.0

    def test_point_mass_collapses_to_deterministic(self):
        q_star = (0.7, 1.1)
        hw = 5e-4
        rho = RhoParams(q_star[0] - hw, q_star[0] + hw,
                        q_star[1] - hw, q_star[1] + hw,
                        q_star[0], q_star[1], 1e-4, 0.0, 1e-4)
        spec = GridSpec(n=12, m1=2, m2=2, tau=1 / 12)
        u = pulse_input(48, spec.tau)
        pop = simulate(population_system(rho, spec), u)
        det = simulate_deterministic(q_star, spec.n, spec.tau, u)
        assert np.abs(pop - det).max() < 1e-3

    def test_discrepancy_small_on_moderate_grid(self, rho_smooth):
        spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
        u = pulse_input(36, spec.tau)
        _, _, disc = population_vs_montecarlo(rho_smooth, spec, u, nsamples=2000, seed=3)
        assert disc < 0.05

    def test_discrepancy_shrinks_with_sample_count(self, rho_smooth):
        # Median discrepancy over seeds drops as the Monte Carlo side
        # gets more draws (the grid trend is in the acceptance suite).
        spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
        u = pulse_input(24, spec.tau)
        medians = []
        for nsamples in (100, 10_000):
            discs = [
                population_vs_montecarlo(rho_smooth, spec, u, nsamples, seed)[2]
                for seed in range(5)
            ]
            medians.append(np.median(discs))
        assert medians[1] < medians[0]


class TestOutputSignHeuristic:
    def test_nonnegative_inputs_give_nonnegative_outputs(self, rho_smooth):
        # Empirical check only: linear elements can undershoot slightly,
        # so tiny negative excursions are tolerated rather than asserted
        # away.
        spec = GridSpec(n=12, m1=3, m2=3, tau=1 / 12)
        sys = population_system(rho_smooth, spec)
        rng = np.random.default_rng(6)
        floor = 0.0
        for _ in range(5):
            u = np.abs(rng.uniform(0, 1, 40))
            floor = min(floor, float(simulate(sys, u).min()))
        for q in [(0.3, 0.8), (0.9, 1.4), (1.3, 0.5)]:
            u = pulse_input(40, spec.tau)
            floor = min(floor, float(
                simulate_deterministic(q, spec.n, spec.tau, u).min()
            ))
        assert floor > -1e-6


class TestEpisode:
    def test_length_contract(self):
        with pytest.raises(ValueError):
            Episode("e", 0.1, np.zeros(5), np.zeros(5))

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            Episode("e", 0.1, -np.ones(3), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Episode("e", 0.1, np.array([0.0, np.nan]), np.zeros(3))

    def test_steps(self):
        ep = Episode("e", 0.1, np.zeros(7), np.zeros(8))
        assert ep.steps == 7
