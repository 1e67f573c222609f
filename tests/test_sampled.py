import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag

from conftest import (
    MODAL_REFERENCE_BOUND,
    POINT_MASS_REFERENCE,
    TABLE_BOUND,
    TABLE_SLOPE_BOUND,
    TABLE_TAU_BOUND,
    eta_operators,
    galerkin_blocks,
    galerkin_generator,
    impulse_response,
    per_cell_reference,
    point_mass_blocks,
    random_rho,
    spectral_radius,
    tangent_hold,
    tangent_responses,
    zero_order_hold,
)

from popdiff import forward, sampled
from popdiff.assembly import assemble
from popdiff.density import RhoParams
from popdiff.errors import ConditioningError, SingularOperatorError
from popdiff.grid import Q1_FLOOR, GridSpec, eta_mass_matrix, eta_stiffness_matrix
from popdiff.sampled import (
    NODE_ROUNDING,
    TABLE_TOP,
    _phi_and_slope,
    build_sampled,
    build_sensitivities,
    derivative_rows,
    eta_symmetric_operators,
    modal_responses,
    node_modes,
    unit_responses,
    unit_slopes,
)


def with_sensitivities(rho, spec):
    ops = assemble(spec, rho, with_grad=True)
    return ops, build_sensitivities(ops, build_sampled(ops, spec.tau))


class TestBuildSampled:
    def test_scalar_closed_form(self):
        # The test oracle's hold, conftest.zero_order_hold: x' = -x + u
        # held over tau = ln 2 gives Ahat = 1/2, Bhat = 1 - 1/2.
        ahat, bhat = zero_order_hold(np.array([[-1.0]]), np.array([[1.0]]), np.log(2.0))
        np.testing.assert_allclose(ahat, [[0.5]], rtol=1e-14)
        np.testing.assert_allclose(bhat, [[0.5]], rtol=1e-14)

    def test_tau_to_zero_limits(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, tau=1e-10)
        ahat, bhat = point_mass_blocks(sys)
        A = block_diag(*ahat)
        np.testing.assert_allclose(A, np.eye(len(A)), atol=1e-8)
        np.testing.assert_allclose(bhat, 0.0, atol=1e-8)

    def test_bhat_matches_quadrature(self, rho_smooth, spec_small):
        # Oracle: 64-node Gauss-Legendre of exp(Agen s) beta over [0, tau].
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, tau=spec_small.tau)
        M_blocks, _, Bvec, _ = galerkin_blocks(ops)
        beta = np.linalg.solve(block_diag(*M_blocks), Bvec)
        agen = block_diag(*galerkin_generator(ops))
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * spec_small.tau * (x + 1)
        ws = 0.5 * spec_small.tau * w
        oracle = sum(
            wi * (scipy.linalg.expm(agen * si) @ beta) for si, wi in zip(s, ws)
        )
        # The Galerkin input column is s_c = w2_c / w_c times the node's.
        w, _, w2 = ops.moments
        err = np.linalg.norm(((w2 / w)[:, None] * point_mass_blocks(sys)[1]).reshape(-1)
                             - oracle)
        assert err / np.linalg.norm(oracle) < 1e-9

    def test_semigroup_property(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        tau = spec_small.tau
        one = block_diag(*point_mass_blocks(build_sampled(ops, tau))[0])
        two = block_diag(*point_mass_blocks(build_sampled(ops, 2 * tau))[0])
        err = np.linalg.norm(one @ one - two) / np.linalg.norm(two)
        assert err < 1e-9

    def test_stability_random_params(self):
        rng = np.random.default_rng(17)
        spec = GridSpec(n=8, m1=3, m2=3, tau=1 / 12)
        for _ in range(20):
            sys = build_sampled(assemble(spec, random_rho(rng)), spec.tau)
            assert spectral_radius(sys) < 1.0

    def test_zero_mass_block_raises(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        # The first cell with no mass is named: its node w1/w is undefined.
        ops.moments[0, [1, 3]] = 0.0
        with pytest.raises(SingularOperatorError, match=r"cell 1 has no mass .* undefined"):
            build_sampled(ops, tau=0.5)
        ops.moments[0, 1] = np.nan
        with pytest.raises(SingularOperatorError, match="cell 1 has no mass"):
            build_sampled(ops, tau=0.5)

    def test_non_finite_node_raises(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        ops.moments[1, 2] = np.inf
        with pytest.raises(ConditioningError, match="node 2"):
            build_sampled(ops, tau=0.5)

    def test_nodes_read_the_table_and_decompose_nothing(self, rho_smooth, spec_small,
                                                        monkeypatch):
        # With the table pieces of its nodes cached, build_sampled, the
        # population response, build_sensitivities and the nodes' slopes
        # make no eigendecomposition.  The response is the weighted sum of
        # the nodes' unit_responses.
        ops = assemble(spec_small, rho_smooth, with_grad=True)
        count = 40
        unit_slopes(build_sampled(ops, spec_small.tau).nodes, spec_small.n, spec_small.tau,
                    count)
        calls = []

        def counted(a, _real=np.linalg.eigh):
            calls.append(a.shape)
            return _real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sys = build_sampled(ops, spec_small.tau)
        h = forward.response(sys, count)
        build_sensitivities(ops, sys)
        g = unit_responses(sys.nodes, sys.n, sys.tau, count)
        unit_slopes(sys.nodes, sys.n, sys.tau, count)
        assert calls == []
        monkeypatch.undo()
        assert np.abs(h - sys.weights @ g).max() <= 1e-14 * np.abs(h).max()
        np.testing.assert_array_equal(forward.response(sys, 7), h[:7])

    def test_tau_validation(self, rho_smooth, spec_small):
        with pytest.raises(ValueError):
            build_sampled(assemble(spec_small, rho_smooth), tau=0.0)

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_cells_are_the_single_q_blocks(self, rho_smooth, n, m):
        # Cell c is the point mass at q1 = nu_c = w1_c / w_c, read with the
        # weight w2_c: its response is the single-q draw's at the node, bit
        # for bit (both read the response table), and within TABLE_BOUND
        # of node_modes there.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        ops = assemble(spec, rho_smooth)
        sys = build_sampled(ops, spec.tau)
        w, w1, _ = ops.moments
        nodes = w1 / w
        np.testing.assert_array_equal(sys.nodes, nodes)
        np.testing.assert_array_equal(sys.weights, ops.moments[2])
        count = 120
        impulse = np.eye(count)[0]
        draws = forward.simulate_deterministic_batch(
            np.column_stack([nodes, np.ones_like(nodes)]), n, spec.tau, impulse)
        rows = unit_responses(sys.nodes, sys.n, sys.tau, count)
        np.testing.assert_array_equal(draws[:, 1:], rows)
        want, _ = modal_responses(nodes, n, spec.tau, count)
        err = np.abs(rows - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= TABLE_BOUND, err.max()


class TestNoEigendecomposition:
    # Modelled on test_uncertainty's test_draws_make_no_eigendecomposition:
    # with the table pieces cached, the population system reads its nodes
    # from the table too.

    @staticmethod
    def counted_eigh(monkeypatch):
        calls = []

        def counted(a, _real=np.linalg.eigh):
            calls.append(a.shape)
            return _real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_fit_and_population_output_make_none(self, rho_smooth, spec_small, monkeypatch):
        from popdiff.optimizer import FitOptions, fit

        truth = RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.16, 0.03, 0.22)
        u = np.random.default_rng(4).uniform(0.0, 1.0, 30)
        episodes = [forward.Episode("ep", spec_small.tau, u,
                                    forward.simulate(forward.population_system(truth, spec_small), u))]
        options = FitOptions(max_iter=10)
        first = fit(episodes, spec_small, rho_smooth, options)
        calls = self.counted_eigh(monkeypatch)
        again = fit(episodes, spec_small, rho_smooth, options)
        forward.simulate(forward.population_system(truth, spec_small), u)
        assert calls == []
        assert again.cost_trace == first.cost_trace
        assert first.n_grad_evals > 1

    def test_nodes_outside_the_table_keep_their_node_modes_rows(self):
        # Nodes above TABLE_TOP (and below Q1_FLOOR) are decomposed, each
        # with its node_modes rows bit for bit, and the guard still names
        # the first unresolved node.
        n, tau, count = 8, 1 / 12, 60
        nodes = np.array([0.5, 2e3, 1e-7, 30.0, 1e5, 1e12])
        ones = np.ones_like(nodes)
        ops = SimpleNamespace(moments=np.stack([ones, nodes, ones]), block_size=n + 1)
        sys = build_sampled(ops, tau)
        g = unit_responses(sys.nodes, n, tau, count)
        dg = unit_slopes(sys.nodes, n, tau, count)
        outside = (nodes < Q1_FLOOR) | (nodes > TABLE_TOP)
        for row, slope, q1 in zip(g[outside], dg[outside], nodes[outside]):
            want = modal_responses(np.array([q1]), n, tau, count)
            np.testing.assert_array_equal(row, want[0][0])
            np.testing.assert_array_equal(slope, want[1][0])
        h = forward.response(sys, count)
        assert np.abs(h - sys.weights @ g).max() <= 1e-14 * np.abs(h).max()
        for bad in (np.nextafter(sampled.largest_node(n), np.inf), np.inf, np.nan):
            ops.moments[1, 3] = bad
            with pytest.raises(ConditioningError, match="node 3 at"):
                build_sampled(ops, tau)


class TestNodeModes:
    def test_each_node_is_resolved_alone(self):
        # Every node has its own eigh, so a node's rates, gamma and
        # projections do not depend on the stack it comes in, across the
        # whole resolved range of q1.
        nodes = np.geomspace(1e-6, 1e20, 25)
        for n in (4, 8, 16):
            rates, gamma, projections = node_modes(nodes, n, 1 / 12)
            for i in (0, 12, 24):
                alone = node_modes(nodes[i:i + 1], n, 1 / 12)
                np.testing.assert_array_equal(rates[i], alone[0][0])
                np.testing.assert_array_equal(gamma[i], alone[1][0])
                for whole, one in zip(projections, alone[2]):
                    np.testing.assert_array_equal(whole[i], one[0])


class TestResponseTable:
    # unit_responses and unit_slopes read table_rows for q1 in
    # [Q1_FLOOR, TABLE_TOP] and modal_responses for the other rows.
    TAU = 1 / 12

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_matches_node_modes(self, n):
        # 3000 log-uniform q1 in [1e-2, 1e2], 120 steps: within
        # TABLE_BOUND of each response's largest value.
        count = 120
        q1 = 10 ** np.random.default_rng(27).uniform(-2, 2, 3000)
        want, _ = modal_responses(q1, n, self.TAU, count)
        got = unit_responses(q1, n, self.TAU, count)
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= TABLE_BOUND, err.max()

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_slopes_match_point_mass_modes(self, n):
        # The slopes dg/dq1 on the q1 of test_matches_node_modes, against
        # modal_responses: within TABLE_SLOPE_BOUND of each slope row's
        # largest value.
        count = 120
        q1 = 10 ** np.random.default_rng(27).uniform(-2, 2, 3000)
        _, want = modal_responses(q1, n, self.TAU, count)
        dg = unit_slopes(q1, n, self.TAU, count)
        err = np.abs(dg - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= TABLE_SLOPE_BOUND, err.max()

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_slopes_are_the_derivative_of_the_table_rows(self, n):
        # q1 dg/dq1 against Richardson's extrapolation (4 D(h/2) - D(h)) / 3
        # of central differences D(h) of the table's own g rows in log q1,
        # h = 1e-3, on 500 log-uniform q1 in [1e-2, 1e2]: the fit's
        # gradient is the gradient of the cost it minimises.  Measured at
        # most 1.5e-10 of each row's largest value (n = 16).
        count = 120
        q1 = 10 ** np.random.default_rng(5).uniform(-2, 2, 500)
        dg = unit_slopes(q1, n, self.TAU, count)

        def central(h):
            return (unit_responses(q1 * np.exp(h), n, self.TAU, count)
                    - unit_responses(q1 * np.exp(-h), n, self.TAU, count)) / (2 * h)

        oracle = (4 * central(5e-4) - central(1e-3)) / 3
        err = np.abs(q1[:, None] * dg - oracle).max(axis=1) / np.abs(oracle).max(axis=1)
        assert err.max() <= 1e-9, err.max()

    @pytest.mark.parametrize("tau", [1 / 60, 1 / 12, 1 / 4, 1.0])
    def test_other_tau(self, tau):
        # g and dg/dq1 at other tau against the modal form on the q1 of
        # test_matches_node_modes, within TABLE_TAU_BOUND per n.
        count = 120
        q1 = 10 ** np.random.default_rng(27).uniform(-2, 2, 3000)
        for n, bound in TABLE_TAU_BOUND.items():
            got = unit_responses(q1, n, tau, count), unit_slopes(q1, n, tau, count)
            want = modal_responses(q1, n, tau, count)
            for a, b in zip(got, want):
                err = np.abs(a - b).max(axis=1) / np.abs(b).max(axis=1)
                assert err.max() <= bound, (n, err.max())

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_rows_keep_their_bits_across_a_rebuild(self, monkeypatch, n):
        # The table starts empty: every piece is built at 50 steps, then
        # rebuilt at 300.  A row and its slope are the same bits alone, in
        # any stack and at any count, before and after the rebuild.
        monkeypatch.setattr(sampled, "_PIECES", {})
        rng = np.random.default_rng(n)
        q1 = np.concatenate([np.geomspace(Q1_FLOOR, TABLE_TOP, 37),  # every piece end
                             10 ** rng.uniform(-6, 3, 40)])

        def rows(q, count):
            return unit_responses(q, n, self.TAU, count), unit_slopes(q, n, self.TAU, count)

        short = rows(q1, 50)
        assert len(sampled._PIECES) == 18
        assert {coefs.shape for coefs in sampled._PIECES.values()} == {(50, 2, 29)}
        full = rows(q1, 300)
        assert {coefs.shape for coefs in sampled._PIECES.values()} == {(300, 2, 29)}
        assert not any(coefs.flags.writeable for coefs in sampled._PIECES.values())
        for kind in range(2):
            np.testing.assert_array_equal(short[kind], full[kind][:, :50])
        for i in range(len(q1)):
            for count in (0, 1, 49, 300):
                alone = rows(q1[i:i + 1], count)
                for kind in range(2):
                    np.testing.assert_array_equal(alone[kind][0], full[kind][i, :count])
        for lo, hi in ((0, 5), (3, 40), (20, 77)):
            part = rows(q1[lo:hi], 120)
            for kind in range(2):
                np.testing.assert_array_equal(part[kind], full[kind][lo:hi, :120])

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_rows_outside_are_node_modes(self, n):
        # A row below Q1_FLOOR or above TABLE_TOP is its modal_responses
        # row alone, bit for bit, in a stack mixed with table rows,
        # and the guard names its row in the stack it came in.
        count = 80
        stack = np.array([Q1_FLOOR, 1e-9, 0.3, np.nextafter(Q1_FLOOR, 0), 2.0,
                          np.nextafter(TABLE_TOP, np.inf), TABLE_TOP, 1e4, 1e12, 1e20])
        outside = (stack < Q1_FLOOR) | (stack > TABLE_TOP)
        got = unit_responses(stack, n, self.TAU, count)
        for row, q1 in zip(got[outside], stack[outside]):
            np.testing.assert_array_equal(row, modal_responses(np.array([q1]), n, self.TAU,
                                                               count)[0][0])
        np.testing.assert_array_equal(
            got[~outside], unit_responses(stack[~outside], n, self.TAU, count))
        largest = sampled.largest_node(n)
        unit_responses(np.append(stack, largest), n, self.TAU, count)
        for bad in (np.nextafter(largest, np.inf), np.inf, np.nan):
            with pytest.raises(ConditioningError, match="node 4 at"):
                unit_responses(np.where(np.arange(10) == 4, bad, stack), n,
                                       self.TAU, count)

    def test_empty_stack_and_zero_count(self):
        stack = np.array([1e-9, 0.3, 2.0, 1e4])
        for n in (4, 8):
            assert unit_responses(np.empty(0), n, self.TAU, 30).shape == (0, 30)
            assert unit_responses(np.empty(0), n, self.TAU, 0).shape == (0, 0)
            assert unit_responses(stack, n, self.TAU, 0).shape == (4, 0)
            y = forward.simulate_deterministic_batch(np.empty((0, 2)), n, self.TAU, np.ones(5))
            assert y.shape == (0, 6)
        with pytest.raises(ValueError, match="tau"):
            unit_responses(np.empty(0), 4, 0.0, 30)


class TestNodeGuard:
    @pytest.mark.parametrize("scale", [1e20, 1e100, 1e300, np.inf, np.nan])
    def test_unresolvable_node_raises_without_warnings(self, scale):
        # A node beyond the NODE_ROUNDING bound (1.7e21 to 1.2e22 at
        # n = 16 to 4), or not finite, raises before S(q1) is formed;
        # node 3 sits at 1e3 times the scale.
        nodes = np.full(5, 1e3)
        nodes[3] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (4, 8, 16):
                with pytest.raises(ConditioningError, match="node 3"):
                    node_modes(nodes, n, 1 / 12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_bound_is_the_stated_formula(self, n):
        # The largest node resolved is q1 = NODE_ROUNDING |l|^2 /
        # (eps^2 |K~|_F); every q1 up to 1e20 is resolved.
        left, _, _, ktilde = eta_symmetric_operators(n)
        eps = np.finfo(float).eps
        largest = NODE_ROUNDING * (left @ left) / (eps**2 * np.linalg.norm(ktilde))
        assert 1e21 < largest < 2e22
        node_modes(np.array([1e20, largest]), n, 1 / 12)
        with pytest.raises(ConditioningError, match="node 1"):
            node_modes(np.array([1e20, np.nextafter(largest, np.inf)]), n, 1 / 12)


class TestEtaOperators:
    def test_one_factorization_per_n(self, rho_smooth, spec_small, monkeypatch):
        # Every build_sampled, build_sensitivities and single-q batch at one
        # n shares one factorization of the depth mass matrix: the
        # symmetric form is cached from it.
        calls = []

        def counted(*args, _real=np.linalg.cholesky, **kwargs):
            calls.append(args[0].shape)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        eta_symmetric_operators.cache_clear()
        first = eta_symmetric_operators(spec_small.n)
        ops = assemble(spec_small, rho_smooth, with_grad=True)
        build_sensitivities(ops, build_sampled(ops, spec_small.tau))
        forward.simulate_deterministic_batch(np.array([[0.8, 1.2]]), spec_small.n,
                                             spec_small.tau, np.ones(3))
        assert calls == [(spec_small.block_size,) * 2]
        again = eta_symmetric_operators(spec_small.n)
        for cached, repeat in zip(first, again, strict=True):
            assert cached is repeat
            assert not cached.flags.writeable


class TestTangentHold:
    # The Van Loan tangent hold, the node kernel that modal_responses
    # replaced, is the test oracle conftest.tangent_hold.

    @staticmethod
    def build(rho, spec):
        sys = build_sampled(assemble(spec, rho), spec.tau)
        return sys, tangent_hold(sys.nodes, spec.n, spec.tau)

    def test_scalar_closed_form(self):
        # The tangent of x' = a x + u: d exp(a t) / da = t exp(a t) and
        # d((exp(a t) - 1) / a) / da = (t exp(a t) a - exp(a t) + 1) / a^2.
        a, tau = -0.8, 0.6
        e = np.exp(a * tau)
        ahat, bhat = zero_order_hold(np.array([[a, 1.0], [0.0, a]]),
                                     np.array([[0.0], [1.0]]), tau)
        np.testing.assert_allclose(ahat, [[e, tau * e], [0.0, e]], rtol=1e-12, atol=0)
        np.testing.assert_allclose(bhat[:, 0], [(tau * e * a - e + 1) / a**2, (e - 1) / a],
                                   rtol=1e-12)

    def test_halves_are_the_forward_hold(self, rho_smooth, spec_small):
        # The diagonal blocks and the lower input half repeat the forward
        # hold, to rounding: one exponential of twice the size.
        sys, (tangent_A, tangent_b) = self.build(rho_smooth, spec_small)
        b = sys.n + 1
        ahat, bhat = point_mass_blocks(sys)
        scale = max(np.abs(ahat).max(), np.abs(bhat).max())
        for got, want in ((tangent_A[:, :b, :b], ahat),
                          (tangent_A[:, b:, b:], ahat),
                          (tangent_A[:, b:, :b], 0.0),
                          (tangent_b[:, b:], bhat)):
            assert np.abs(got - want).max() <= 1e-13 * scale

    def test_stack_matches_node_by_node(self, rho_smooth, spec_small):
        # All nodes are held in one stacked call; each node must come out
        # bit for bit as held alone.
        sys, (tangent_A, tangent_b) = self.build(rho_smooth, spec_small)
        for c in range(len(sys.nodes)):
            alone_A, alone_b = tangent_hold(sys.nodes[c:c + 1], spec_small.n, spec_small.tau)
            np.testing.assert_array_equal(tangent_A[c], alone_A[0])
            np.testing.assert_array_equal(tangent_b[c], alone_b[0])

    def test_against_independent_frechet(self, rho_smooth, spec_small):
        # scipy's dedicated Frechet-derivative routine as a second path, on
        # the Galerkin generators: dAhat/dnu = L(G tau, G1 tau).
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, spec_small.tau)
        tangent_A, _ = tangent_hold(sys.nodes, spec_small.n, spec_small.tau)
        b = sys.n + 1
        g1 = -np.linalg.solve(eta_mass_matrix(spec_small.n), eta_stiffness_matrix(spec_small.n))
        for gen, upper in zip(galerkin_generator(ops), tangent_A[:, :b, b:]):
            _, frechet = scipy.linalg.expm_frechet(gen * sys.tau, g1 * sys.tau)
            np.testing.assert_allclose(upper, frechet, rtol=1e-10, atol=1e-12)


def node_derivatives_by_recursion(A, bhat, dA, dbhat, count):
    """(..., count) d(e0^T A^k bhat) from the derivatives dA and dbhat of
    the hold: x_{k+1} = A x_k and dx_{k+1} = dA x_k + A dx_k, one step at
    a time.  ``dA`` and ``dbhat`` may carry leading axes beyond A's."""
    x, dx = bhat, dbhat
    out = np.empty(dx.shape[:-1] + (count,))
    for k in range(count):
        out[..., k] = dx[..., 0]
        dx = np.einsum("...ij,...j->...i", dA, x) + np.einsum("...ij,...j->...i", A, dx)
        x = np.einsum("...ij,...j->...i", A, x)
    return out


class TestSensitivities:
    build = staticmethod(with_sensitivities)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_stack_equals_per_cell_reference(self, rho_smooth, n):
        # The reference factorizes every Galerkin mass block and solves
        # nine directions per cell.  Its input column is s_c = w2_c / w_c
        # times the node's, so its cell responses s_c g_c have the
        # parameter derivatives ds_c g_c + s_c dnu_c dg_c/dnu; they and the
        # hold agree with it to rounding.
        spec = GridSpec(n=n, m1=2, m2=2, tau=1 / 12)
        ops, sys = self.build(rho_smooth, spec)
        A, Agen, Bhat, dA, dBhat = per_cell_reference(ops, spec.tau)
        g0, g1, _ = eta_operators(n)
        w, _, w2 = ops.moments
        dw, _, dw2 = ops.dmoments
        s = w2 / w
        ds = (dw2 - s * dw) / w
        count = 24
        g, dg = modal_responses(sys.nodes, n, spec.tau, count)
        galerkin_dg = ds[:, :, None] * g + (s * sys.dnodes)[:, :, None] * dg
        reference_dg = node_derivatives_by_recursion(
            A, Bhat.reshape(len(w), -1), dA, dBhat.reshape(len(ds), len(w), -1), count)
        gen = g0 + sys.nodes[:, None, None] * g1
        ahat, bhat = point_mass_blocks(sys)
        for got, want in ((ahat, A), (gen, Agen),
                          ((s[:, None] * bhat).reshape(-1), Bhat),
                          (galerkin_dg, reference_dg)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_params", [1, 4, 9])
    def test_parameters_share_each_solve_call(self, rho_smooth, spec_small,
                                              monkeypatch, n_params):
        # Every parameter moves a cell through its moments alone, so all of
        # them share the nodes' table rows: with the pieces cached,
        # build_sampled and build_sensitivities decompose nothing at any
        # parameter count, and the parameter count changes no bit of any
        # parameter's result.
        ops, full = self.build(rho_smooth, spec_small)
        unit_slopes(full.nodes, spec_small.n, spec_small.tau, 40)
        sub = dataclasses.replace(ops, dmoments=ops.dmoments[:, :n_params])
        calls = []

        def counted(a, _real=np.linalg.eigh):
            calls.append(a.shape)
            return _real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sys = build_sensitivities(sub, build_sampled(sub, spec_small.tau))
        unit_slopes(sys.nodes, sys.n, sys.tau, 40)
        assert calls == []
        np.testing.assert_array_equal(sys.nodes, full.nodes)
        np.testing.assert_array_equal(sys.dnodes, full.dnodes[:n_params])
        np.testing.assert_array_equal(sys.dweights, full.dweights[:n_params])

    def test_node_and_weight_derivatives_are_assembled_gradients(self, rho_smooth,
                                                                 spec_small):
        # The weights are the moments w2_c and the nodes w1_c / w_c, so
        # their derivatives come from the assembled moment derivatives.
        ops, sys = self.build(rho_smooth, spec_small)
        w, w1, _ = ops.moments
        dw, dw1, dw2 = ops.dmoments
        np.testing.assert_array_equal(sys.dweights, dw2)
        np.testing.assert_array_equal(sys.dnodes, (dw1 - (w1 / w) * dw) / w)
        assert sys.dnodes.shape == sys.dweights.shape == (9, len(sys.nodes))

    def test_matches_finite_differences(self, rho_smooth):
        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        _, sys = self.build(rho_smooth, spec)
        count = 30
        dg = unit_slopes(sys.nodes, spec.n, spec.tau, count)
        base = rho_smooth.as_array()

        def node_responses(s):
            return unit_responses(s.nodes, spec.n, spec.tau, count)

        for k in range(9):
            h = 1e-6 * (1 + abs(base[k]))
            up, dn = base.copy(), base.copy()
            up[k] += h
            dn[k] -= h
            sys_up = build_sampled(assemble(spec, RhoParams.from_array(up)), spec.tau)
            sys_dn = build_sampled(assemble(spec, RhoParams.from_array(dn)), spec.tau)
            fdG = (node_responses(sys_up) - node_responses(sys_dn)) / (2 * h)
            fdW = (sys_up.weights - sys_dn.weights) / (2 * h)
            dG = sys.dnodes[k, :, None] * dg
            errG = np.linalg.norm(dG - fdG) / max(np.linalg.norm(fdG), 1e-10)
            errW = np.linalg.norm(sys.dweights[k] - fdW) / max(np.linalg.norm(fdW), 1e-10)
            assert errG < 1e-5, k
            assert errW < 1e-5, k

    def test_returns_a_new_rule_and_leaves_its_argument(self, rho_smooth, spec_small):
        # The rule holds no hidden state: build_sensitivities returns a new
        # rule carrying the derivatives and leaves the one it was given as
        # it was; no field of a rule can be reassigned.
        ops = assemble(spec_small, rho_smooth, with_grad=True)
        sys = build_sampled(ops, spec_small.tau)
        before = dataclasses.astuple(sys)
        sens = build_sensitivities(ops, sys)
        assert sens is not sys
        assert sys.dnodes is None and sys.dweights is None
        for kept, now in zip(before, dataclasses.astuple(sys), strict=True):
            np.testing.assert_array_equal(now, kept)
        for field in ("n", "tau", "nodes", "weights"):
            assert getattr(sens, field) is getattr(sys, field)
        assert sens.dnodes.shape == sens.dweights.shape == (9, len(sys.nodes))
        for field in ("nodes", "dnodes", "tau"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sens, field, None)

    def test_requires_gradient_tensors(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, spec_small.tau)
        with pytest.raises(ValueError):
            build_sensitivities(ops, sys)


class TestPointMassReference:
    # Against conftest.POINT_MASS_REFERENCE; errors are relative to each
    # response's largest magnitude.

    @staticmethod
    def errors(responses):
        """{n: (len(q1), 2) errors of g and dg} of ``responses(q1, n, tau,
        steps) -> (g, dg)`` against the reference."""
        ref = np.load(POINT_MASS_REFERENCE)
        q1, tau, steps = ref["q1"], float(ref["tau"]), int(ref["steps"])
        out = {}
        for n in ref["n"]:
            got = responses(q1, int(n), tau, steps)
            want = ref[f"g_n{n}"], ref[f"dg_n{n}"]
            out[int(n)] = np.column_stack([np.abs(a - b).max(axis=1) / np.abs(b).max(axis=1)
                                           for a, b in zip(got, want)])
        return q1, out

    def test_tangent_hold_against_the_reference(self):
        # On q1 in [1e-2, 1e2] the oracle's hold is within 1e-9 of each
        # response's largest value.  Toward the ends of Q1_GRID it parts
        # from the reference: at n = 16 by up to 8.8e-7 (g, q1 = 1e-3) and
        # 4.1e-7 (dg, q1 = 1e-6).
        q1, errors = self.errors(tangent_responses)
        inner = (q1 >= 1e-2) & (q1 <= 1e2)
        for n, err in errors.items():
            assert err[inner].max() <= 1e-9, n
            assert np.all(err <= 1e-3), n

    def test_modal_form_against_the_reference(self):
        # modal_responses is within MODAL_REFERENCE_BOUND at every point,
        # and within 1e-9 on q1 in [1e-2, 1e2].
        q1, modal_errors = self.errors(modal_responses)
        inner = (q1 >= 1e-2) & (q1 <= 1e2)
        for n, err in modal_errors.items():
            assert err.max() <= MODAL_REFERENCE_BOUND[n], n
            assert err[inner].max() <= 1e-9, n


    def test_table_against_the_reference(self):
        # The table's rows and slopes (unit_responses and unit_slopes; every
        # q1 of the file lies in [Q1_FLOOR, TABLE_TOP]) are within
        # MODAL_REFERENCE_BOUND at every point, and within 1e-9 on q1 in
        # [1e-2, 1e2].  Measured at n = 16: g 7.2e-8 and 1.7e-7, dg 2.2e-7
        # and 1.4e-8 at q1 = 1e-6 and 1e-3, as the modal form.
        def table(q1, n, tau, steps):
            return unit_responses(q1, n, tau, steps), unit_slopes(q1, n, tau, steps)

        q1, table_errors = self.errors(table)
        inner = (q1 >= 1e-2) & (q1 <= 1e2)
        for n, err in table_errors.items():
            assert err.max() <= MODAL_REFERENCE_BOUND[n], n
            assert err[inner].max() <= 1e-9, n


class TestPointMassModes:
    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_response_is_the_forward_hold(self, rho_smooth, n, m):
        # g from the modal form repeats the forward hold's impulse
        # response, to rounding.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        sys = build_sampled(assemble(spec, rho_smooth), spec.tau)
        g, _ = modal_responses(sys.nodes, n, spec.tau, 120)
        want = impulse_response(*point_mass_blocks(sys), 120)[..., 0]
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

    def test_stack_matches_node_by_node(self):
        # One stacked eigh for all nodes; each node's derivative rows
        # (delta, eps) and its g and dg/dq1 come out bit for bit as from
        # that node alone.
        nodes = np.geomspace(1e-6, 1e3, 13)

        def rows(q1):
            rates, _, projections = node_modes(q1, 8, 1 / 12)
            return (*derivative_rows(rates, projections, 1 / 12),
                    *modal_responses(q1, 8, 1 / 12, 60))

        stacked = rows(nodes)
        for c in range(len(nodes)):
            for whole, one in zip(stacked, rows(nodes[c:c + 1]), strict=True):
                np.testing.assert_array_equal(whole[c], one[0])

    def test_against_independent_frechet(self):
        # scipy's Frechet derivative of the hold as a second path:
        # dAhat/dq1 = L(G tau, G1 tau), dbhat/dq1 from
        # bhat = (Ahat - I) G^{-1} beta, and dg_k by the recursion.
        n, tau, count = 6, 1 / 12, 40
        g0, g1, beta = eta_operators(n)
        for q1 in (0.05, 0.7, 4.0):
            gen = g0 + q1 * g1
            ahat, dahat = scipy.linalg.expm_frechet(gen * tau, g1 * tau)
            x = np.linalg.solve(gen, beta[:, 0])
            bhat = (ahat - np.eye(n + 1)) @ x
            dbhat = dahat @ x - (ahat - np.eye(n + 1)) @ np.linalg.solve(gen, g1 @ x)
            want = node_derivatives_by_recursion(ahat, bhat, dahat, dbhat, count)
            _, dg = modal_responses(np.array([q1]), n, tau, count)
            assert np.abs(dg[0] - want).max() <= 1e-12 * np.abs(want).max(), q1

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_derivative_matches_richardson_differences(self, n):
        # dg/dq1 against Richardson's extrapolation (4 D(h/2) - D(h)) / 3
        # of central differences D(h) of unit_responses in q1, at
        # h = 1e-2 q1.  The oracle's own error (its truncation, and the
        # responses' rounding divided by h) sets the bound: the worst error
        # measured is 2.5e-9, at q1 = 40.
        tau, count = 1 / 12, 120
        q1 = np.array([0.02, 0.3, 1.0, 5.0, 40.0])
        _, dg = modal_responses(q1, n, tau, count)

        def central(h):
            return (unit_responses(q1 + h, n, tau, count)
                    - unit_responses(q1 - h, n, tau, count)) / (2 * h[:, None])

        h = 1e-2 * q1
        oracle = (4 * central(h / 2) - central(h)) / 3
        err = np.abs(dg - oracle).max(axis=1) / np.abs(oracle).max(axis=1)
        assert err.max() <= 5e-8, err

    def test_close_eigenvalues_keep_the_divided_differences_accurate(self, monkeypatch):
        # A three-mode S = l l^T + q1 D~^T D~ whose two slow eigenvalues
        # lie as close as the coupling 2 delta^2 lets them (relative gaps
        # 3e-6 down to 3e-14), against 60-digit mpmath: g from its
        # eigendecomposition, dg/dq1 by central differences at step 1e-25.
        import mpmath

        tau, count, q1 = 1 / 12, 60, 1.0
        right = np.array([1.0, 0.3, 0.2])
        dfac = np.diag(np.sqrt([1.0, 1.0, 3.0]))

        def reference(left):
            def g(q):
                s = (mpmath.matrix(np.outer(left, left).tolist())
                     + q * mpmath.matrix((dfac.T @ dfac).tolist()))
                w, v = mpmath.eigsy(s)
                out = []
                for k in range(count):
                    total = mpmath.mpf(0)
                    for i in range(3):
                        lv = sum(mpmath.mpf(left[j]) * v[j, i] for j in range(3))
                        rv = sum(mpmath.mpf(right[j]) * v[j, i] for j in range(3))
                        total += (lv * rv * -mpmath.expm1(-w[i] * tau) / w[i]
                                  * mpmath.exp(-w[i] * tau * k))
                    out.append(total)
                return out

            with mpmath.workdps(60):
                h = mpmath.mpf("1e-25")
                up, dn = g(mpmath.mpf(q1) + h), g(mpmath.mpf(q1) - h)
                return np.array([float((a - b) / (2 * h)) for a, b in zip(up, dn)])

        for delta in (1e-3, 1e-5, 1e-7):
            left = np.array([delta, 2 * delta, 1.0])
            ops = (left, right, dfac, dfac.T @ dfac)
            monkeypatch.setattr(sampled, "eta_symmetric_operators", lambda n: ops)
            rates, _, _ = node_modes(np.array([q1]), 2, tau)
            slow = np.sort(rates[0])[:2]
            assert (slow[1] - slow[0]) / slow[0] <= 1e-5
            _, dg = modal_responses(np.array([q1]), 2, tau, count)
            want = reference(left)
            assert np.abs(dg[0] - want).max() <= 1e-12 * np.abs(want).max(), delta

    def test_phi_slope_against_mpmath(self):
        # phi'(w) by its series below x = w tau = SERIES_BELOW and in
        # closed form above, against 40-digit mpmath, from x = 1e-12 (the
        # nodes reach Q1_FLOOR) to x = 30.
        import mpmath

        tau = 1 / 12
        rates = np.geomspace(1e-12, 30.0, 200) / tau
        phi, slope = _phi_and_slope(rates, tau)
        with mpmath.workdps(40):
            t = mpmath.mpf(tau)
            want_phi = [-mpmath.expm1(-w * t) / w for w in map(mpmath.mpf, rates)]
            want_slope = [(t * mpmath.exp(-w * t) + mpmath.expm1(-w * t) / w) / w
                          for w in map(mpmath.mpf, rates)]
            want_phi = np.array([float(v) for v in want_phi])
            want_slope = np.array([float(v) for v in want_slope])
        assert np.abs(phi / want_phi - 1).max() <= 1e-15
        assert np.abs(slope / want_slope - 1).max() <= 4e-15
