from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import popdiff.forward as forward_mod
import popdiff.sampled as sampled_mod

from conftest import (
    MODAL_REFERENCE_BOUND,
    POINT_MASS_REFERENCE,
    impulse_response,
    loop_simulate,
    point_mass_blocks,
    point_mass_hold,
    pulse_input,
    smooth_pulse_input,
)

from popdiff.assembly import assemble
from popdiff.density import QPoint, RhoParams, sample_array
from popdiff.errors import ConditioningError, SimulationDivergenceError
from popdiff.forward import (
    BATCH_DRAWS,
    Episode,
    convolve,
    population_system,
    population_vs_montecarlo,
    response,
    simulate,
    simulate_deterministic,
    simulate_deterministic_batch,
    unit_responses,
)
from popdiff.grid import GridSpec, eta_mass_matrix, eta_stiffness_matrix
from popdiff.sampled import (SampledSystem, build_sampled, derivative_rows, modal_responses,
                             node_modes)


@pytest.fixture
def scalar_system(monkeypatch):
    """(ahat, bhat, weight=1, tau=1) -> one node read with ``weight``
    whose kernel, in place of the point mass's, is g_k = bhat ahat^k: the
    one mode with the decay factor ahat and the row bhat."""
    def make(ahat, bhat, weight=1.0, tau=1.0):
        def kernel(q1, n, tau_, count):
            with np.errstate(over="ignore"):  # a growing mode
                return np.full((len(q1), 1), bhat) * ahat ** np.arange(count)

        monkeypatch.setattr(forward_mod, "unit_responses", kernel)
        return SampledSystem(n=0, tau=tau, nodes=np.array([1.0]), weights=np.array([weight]))

    return make


def node_system(nodes, n, tau):
    """The population system whose cells are the point masses at q1 =
    ``nodes``, each read with weight 1: ``build_sampled`` of unit cell
    moments w = w2 = 1, w1 = nodes."""
    nodes = np.asarray(nodes, dtype=float)
    ones = np.ones_like(nodes)
    ops = SimpleNamespace(moments=np.stack([ones, nodes, ones]), block_size=n + 1)
    return build_sampled(ops, tau)


class TestSimulate:
    def test_zero_input_zero_output(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        y = simulate(sys, np.zeros(30))
        np.testing.assert_array_equal(y, 0.0)

    def test_scalar_geometric_series(self, scalar_system):
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
        # The convolution against the dense block-diagonal recursion x[j+1] =
        # A x[j] + B u[j], read by C: equal to rounding, not bit for bit.
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(20, spec_small.tau)
        y = simulate(sys, u)
        ahat, bhat = point_mass_blocks(sys)
        A, B = scipy.linalg.block_diag(*ahat), bhat.reshape(-1)
        C = np.zeros_like(bhat)
        C[:, 0] = sys.weights
        C = C.reshape(-1)
        x = np.zeros_like(B)
        dense = [C @ x]
        for uj in u:
            x = A @ x + B * uj
            dense.append(C @ x)
        assert np.abs(y - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_impulse_response_does_not_depend_on_count(self, rho_smooth, spec_small):
        # The single-q impulse responses at the nodes: entry j is the same
        # computation for every count (bit for bit), and it equals the
        # dense powers e0^T A^j b of the oracle's hold to rounding.
        sys = population_system(rho_smooth, spec_small)
        long = unit_responses(sys.nodes, spec_small.n, spec_small.tau, 45)
        for count in (0, 1, 2, 3, 20, 32, 33):
            np.testing.assert_array_equal(
                unit_responses(sys.nodes, spec_small.n, spec_small.tau, count),
                long[:, :count])
        dense = np.empty_like(long)
        for c, (a, b) in enumerate(zip(*point_mass_blocks(sys))):
            for j in range(long.shape[1]):
                dense[c, j] = (np.linalg.matrix_power(a, j) @ b)[0]
        assert np.abs(long - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_short_response_is_rejected(self, rho_smooth, spec_small):
        # A convolution reads the missing tail of a short h as zeros: a
        # 10-step h for this 30-step input was off by 0.39, without an error.
        sys = population_system(rho_smooth, spec_small)
        u = pulse_input(30, spec_small.tau)
        with pytest.raises(ValueError, match="h has 10 steps"):
            simulate(sys, u, response(sys, 10))
        np.testing.assert_array_equal(simulate(sys, u, response(sys, 30)), simulate(sys, u))

    def test_divergence_guard(self, scalar_system):
        sys = scalar_system(2.0, 1.0)
        with pytest.raises(SimulationDivergenceError):
            simulate(sys, np.ones(1200))

    def test_explicit_response_changes_no_bit(self, rho_smooth):
        # h[k] does not depend on the response's length: bit for bit.
        spec = GridSpec(n=8, m1=4, m2=4, tau=1 / 12)
        sys = population_system(rho_smooth, spec)
        u = np.random.default_rng(3).uniform(0.0, 1.0, 40)
        np.testing.assert_array_equal(simulate(sys, u, response(sys, 75)), simulate(sys, u))

    def test_rejects_a_stack_of_inputs(self, rho_smooth, spec_small):
        sys = population_system(rho_smooth, spec_small)
        with pytest.raises(ValueError, match="one input sequence"):
            simulate(sys, np.ones((2, 12)))

    @pytest.mark.parametrize("q1", [1e-3, 50.0])
    def test_long_horizon_matches_loop(self, q1):
        # 2400 steps: the doubling's highest power is A^2048.  A slow node
        # (the input has barely reached the surface) and a fast one.
        n, tau = 8, 1 / 12
        sys = node_system([q1], n, tau)
        u = np.random.default_rng(5).uniform(0.0, 1.0, 2400)
        y_loop, _ = loop_simulate(sys, u)
        scale = np.abs(y_loop).max()
        assert scale > 0
        assert np.abs(simulate(sys, u) - y_loop).max() <= 1e-12 * scale
        single_q = simulate_deterministic_batch(np.array([[q1, 1.0]]), n, tau, u)[0]
        assert np.abs(single_q - y_loop).max() <= 1e-12 * scale

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_no_numpy_warning(self, rho_smooth, spec_small, scalar_system):
        # Overflow, then inf - inf: only the error may surface.
        sys = population_system(rho_smooth, spec_small)
        with pytest.raises(SimulationDivergenceError):
            simulate(sys, np.full(400, 1.7e308))
        with pytest.raises(SimulationDivergenceError):
            simulate(scalar_system(2.0, 1.0), np.ones(1200))


def per_row_convolve(g, u):
    """The reference of ``convolve``: one ``np.convolve`` per row."""
    mu = len(u)
    y = np.zeros((len(g), mu + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, gr in zip(y[:, 1:], g) if mu else ():
            out[:] = np.convolve(gr[:mu], u)[:mu]
    return y


class TestConvolve:
    @pytest.mark.parametrize("mu", [*range(41), 60, 120])
    def test_every_path_gives_the_bits_of_np_convolve(self, mu):
        # A stack of more rows than steps and more than 11 steps is
        # convolved one step at a time across its rows; any other takes
        # one np.convolve per row.  Either way each row is the bits of its
        # own np.convolve: at row counts on both sides of the step count,
        # for rows cut from a longer count (as initialize cuts its grid
        # responses), and with nan and inf entries in the responses and
        # the input.
        rng = np.random.default_rng(mu)
        clean = rng.uniform(0.0, 2.0, mu)
        spoilt = clean.copy()
        if mu > 1:
            spoilt[rng.integers(mu // 2, mu, size=2)] = np.inf, np.nan
        for rows in sorted({1, mu - 1, mu, mu + 1, 3 * mu} - {0, -1}):
            longer = rng.normal(size=(rows, mu + 7)) * 10.0 ** rng.integers(-8, 9, (rows, 1))
            if mu > 1 and rows > 3:
                longer[rng.integers(rows, size=3), rng.integers(mu, size=3)] = (
                    np.nan, np.inf, -np.inf)
            for u in (clean, spoilt):
                want = per_row_convolve(longer[:, :mu].copy(), u)
                for g in (longer[:, :mu], np.ascontiguousarray(longer[:, :mu]), longer):
                    got = convolve(g, u)
                    assert got.shape == (rows, mu + 1)
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                                  err_msg=f"{rows} rows")

    @pytest.mark.parametrize("rows, mu", [(2, 5), (40, 13)])
    def test_short_response_is_rejected(self, rows, mu):
        # np.convolve would read the missing tail as zeros; both paths
        # (2 rows of 5 steps one row at a time, 40 of 13 one step at a time)
        # refuse it.
        with pytest.raises(ValueError, match=f"response has {mu - 2} steps"):
            convolve(np.ones((rows, mu - 2)), np.ones(mu))


class TestPopulationResponse:
    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_matches_the_hold(self, rho_smooth, n, m):
        # h = sum_c omega_c e0^T Ahat_c^k bhat_c from the oracle's hold at
        # the system's nodes, within 1e-12 of max|h|.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        sys = population_system(rho_smooth, spec)
        h = response(sys, 120)
        held = impulse_response(*point_mass_hold(sys.nodes, n, spec.tau), 120)[..., 0]
        want = sys.weights @ held
        assert np.abs(h - want).max() <= 1e-12 * np.abs(want).max()

    def test_against_the_reference(self):
        # Each node alone, against the 50-digit point-mass responses of
        # conftest.POINT_MASS_REFERENCE (n = 4, 8, 16; q1 = 1e-6 .. 1e3; 120
        # steps): within MODAL_REFERENCE_BOUND at any point.
        ref = np.load(POINT_MASS_REFERENCE)
        tau, steps = float(ref["tau"]), int(ref["steps"])
        for n in map(int, ref["n"]):
            want = ref[f"g_n{n}"]
            scale = np.abs(want).max(axis=1)
            for q1, row, top in zip(ref["q1"], want, scale):
                got = response(node_system([q1], n, tau), steps)
                err = np.abs(got - row).max() / top
                assert err <= MODAL_REFERENCE_BOUND[n], (n, q1, err)


    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_entries_do_not_depend_on_count(self, rho_smooth, n, m):
        # h[k] is one dot of fixed length over the nodes per k, so the
        # response at every count from 0 to 400 is the prefix of the
        # longest, bit for bit.  A matrix product weights @ g differed at
        # most counts with 16 and 64 nodes.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        sys = population_system(rho_smooth, spec)
        full = response(sys, 400)
        assert all(np.array_equal(response(sys, count), full[:count]) for count in range(400))

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_doubling_powers(self, rho_smooth, n, m):
        # modal_responses forms its powers e^{-w tau k} by doubling: g and
        # dg/dq1 are the same bits at every count from 0 to 400, and within
        # 1e-14 of the direct exponential sums over the same rows, relative
        # to each row's largest value (measured 2.1e-15 at n = 16).
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        nodes = population_system(rho_smooth, spec).nodes
        full = modal_responses(nodes, n, spec.tau, 401)
        assert all(np.array_equal(part, whole[:, :count])
                   for count in range(401)
                   for part, whole in zip(modal_responses(nodes, n, spec.tau, count), full))
        rates, gamma, projections = node_modes(nodes, n, spec.tau)
        delta, eps = derivative_rows(rates, projections, spec.tau)
        k = np.arange(401)
        powers = np.exp(-spec.tau * rates[:, None, :] * k[:, None])
        exact = (np.vecdot(powers, gamma[:, None, :]),
                 np.vecdot(powers, delta[:, None, :])
                 - spec.tau * k * np.vecdot(powers, eps[:, None, :]))
        for got, want in zip(full, exact):
            err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
            assert err.max() <= 1e-14, err.max()

    @pytest.mark.parametrize("q1", [1e12, 1e16, 1e20])
    def test_huge_q1_tends_to_the_well_mixed_column(self, q1):
        # As q1 grows the column mixes at once and its unit mass evaporates
        # at rate 1: g_k -> (1 - e^{-tau}) e^{-tau k}.  Measured 2.2e-12 at
        # q1 = 1e12 (the model's own 2.3 / q1) and, as rounding in S grows
        # with q1, up to 3.8e-8 at 1e20.  node_modes raises
        # ConditioningError only beyond 1.7e21 (n = 16; TestNodeGuard).
        tau, count = 1 / 12, 120
        limit = (1 - np.exp(-tau)) * np.exp(-tau * np.arange(count))
        for n in (4, 8, 16):
            h = response(node_system([q1], n, tau), count)
            assert np.abs(h - limit).max() <= 1e-7 * limit.max(), n

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

    def test_infinite_q1_is_a_conditioning_error(self):
        with pytest.raises(ConditioningError, match="node 0 at q1 = inf"):
            simulate_deterministic((np.inf, 1.0), 4, 0.1, np.ones(3))

    def test_nan_input_diverges(self):
        u = pulse_input(24, 1 / 12)
        u[10] = np.nan
        with pytest.raises(SimulationDivergenceError):
            simulate_deterministic((0.8, 1.2), 4, 1 / 12, u)

    def test_short_response_is_rejected(self):
        # As for simulate: a 10-step g for this 30-step input was off by 0.43.
        tau, q = 1 / 12, (0.8, 1.2)
        u = pulse_input(30, tau)
        g = unit_responses(np.array([q[0]]), 4, tau, 30)[0]
        with pytest.raises(ValueError, match="g has 10 steps"):
            simulate_deterministic(q, 4, tau, u, g[:10])
        np.testing.assert_array_equal(simulate_deterministic(q, 4, tau, u, g),
                                      simulate_deterministic(q, 4, tau, u))

    @pytest.mark.parametrize("u", [np.ones((2, 12)), np.float64(1.0)])
    def test_rejects_input_that_is_not_one_sequence(self, u):
        g = np.ones(12)
        with pytest.raises(ValueError, match="one input sequence"):
            simulate_deterministic((0.8, 1.2), 4, 1 / 12, u)
        with pytest.raises(ValueError, match="one input sequence"):
            simulate_deterministic((0.8, 1.2), 4, 1 / 12, u, g)

    def test_qpoint_and_tuple_agree(self):
        u = pulse_input(36, 1 / 12)
        np.testing.assert_array_equal(
            simulate_deterministic(QPoint(0.8, 1.2), 8, 1 / 12, u),
            simulate_deterministic((0.8, 1.2), 8, 1 / 12, u),
        )


class TestDeterministicBatch:
    # 300 draws: full blocks of BATCH_DRAWS and a partial one.
    NDRAWS = 300

    @pytest.fixture
    def draws(self, rho_smooth):
        assert self.NDRAWS % BATCH_DRAWS != 0
        return sample_array(rho_smooth, self.NDRAWS, seed=4)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_per_draw_solver(self, draws, monkeypatch, n):
        # Each draw solved alone must match its row of the blocked solve:
        # checks the slicing into BATCH_DRAWS blocks and the partial block.
        # Exactly: each draw's response is formed on its own, and the
        # lockstep q1 search of optimizer.initialize relies on a row of a
        # stacked solve, at a longer count, being the bits of that solve
        # alone.  The table starts empty, so the batch builds its pieces at
        # 120 steps and the 400-step stack rebuilds them; every row of the
        # stack is then checked at every count 0-400.
        monkeypatch.setattr(sampled_mod, "_PIECES", {})
        tau = 1 / 12
        u = pulse_input(120, tau)
        batch = simulate_deterministic_batch(draws, n, tau, u)
        looped = np.array([simulate_deterministic(q, n, tau, u) for q in draws])
        assert batch.shape == looped.shape == (self.NDRAWS, 121)
        np.testing.assert_array_equal(batch, looped)
        stacked = unit_responses(draws[:, 0], n, tau, 400)
        assert {coefs.shape[0] for coefs in sampled_mod._PIECES.values()} == {400}
        given = np.array([simulate_deterministic(q, n, tau, u, g)
                          for q, g in zip(draws, stacked)])
        np.testing.assert_array_equal(given, looped)
        assert all(np.array_equal(unit_responses(draws[:, 0], n, tau, count),
                                  stacked[:, :count]) for count in range(401))

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

    def test_infinite_q1_is_a_conditioning_error(self, draws):
        bad = draws.copy()
        bad[BATCH_DRAWS + 5, 0] = np.inf
        with pytest.raises(ConditioningError, match="node 5 at q1 = inf"):
            simulate_deterministic_batch(bad, 4, 0.1, np.ones(3))

    @pytest.mark.parametrize("u", [np.ones((2, 12)), np.float64(1.0)])
    def test_rejects_input_that_is_not_one_sequence(self, draws, u):
        with pytest.raises(ValueError, match="one input sequence"):
            simulate_deterministic_batch(draws, 4, 1 / 12, u)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_unit_responses_against_the_reference(self, n):
        # The draws meet the bounds the nodes meet
        # (test_sampled.py::TestPointMassReference) against the 50-digit
        # responses of conftest.POINT_MASS_REFERENCE (q1 = 1e-6 .. 1e3, 120
        # steps): MODAL_REFERENCE_BOUND at any point, and 1e-9 of each
        # response's largest value on q1 in [1e-2, 1e2].  Measured at most
        # 1.7e-7, at n = 16 and q1 = 1e-3.
        ref = np.load(POINT_MASS_REFERENCE)
        q1, tau, steps = ref["q1"], float(ref["tau"]), int(ref["steps"])
        want = ref[f"g_n{n}"]
        err = (np.abs(unit_responses(q1, n, tau, steps) - want).max(axis=1)
               / np.abs(want).max(axis=1))
        assert err.max() <= MODAL_REFERENCE_BOUND[n], err
        assert err[(q1 >= 1e-2) & (q1 <= 1e2)].max() <= 1e-9

    @pytest.mark.parametrize("q1, bound", [(1e9, 3e-9), (1e12, 3e-12)])
    def test_large_q1_meets_the_well_mixed_limit(self, q1, bound):
        # As q1 grows the column mixes at once: g_k -> (1 - e^{-tau})
        # e^{-tau k}, and the model's own distance from that limit is
        # about 2.3 / q1 of its largest value (measured 2.3e-9 and 2.2e-12
        # at n = 4, 8 and 16).
        tau, count = 1 / 12, 120
        limit = (1 - np.exp(-tau)) * np.exp(-tau * np.arange(count))
        for n in (4, 8, 16):
            g = unit_responses(np.array([q1]), n, tau, count)[0]
            assert np.abs(g - limit).max() <= bound * limit.max(), n

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
    # simulate_deterministic_batch reads a table built from the modal
    # kernel (modal_responses) and shares the convolution with the
    # population path, so the cell mixture does not check them
    # independently; this reference shares neither.
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
    # two sides share the modal kernel and the convolution but not the
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

    @pytest.mark.parametrize("u, y_obs", [(np.ones((5, 2)), np.zeros(6)),
                                          (np.float64(1.0), np.zeros(2))])
    def test_input_must_be_one_sequence(self, u, y_obs):
        with pytest.raises(ValueError, match="episode e7: u must be one sequence"):
            Episode("e7", 1 / 12, u, y_obs)

    def test_steps(self):
        ep = Episode("e", 0.1, np.zeros(7), np.zeros(8))
        assert ep.steps == 7
