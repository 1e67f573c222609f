import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag

from conftest import galerkin_blocks, galerkin_generator, per_cell_reference, random_rho

from popdiff import forward, sampled
from popdiff.assembly import assemble
from popdiff.errors import ConditioningError, SingularOperatorError
from popdiff.grid import GridSpec, eta_mass_matrix, eta_stiffness_matrix
from popdiff.optimizer import Q1_GRID
from popdiff.sampled import (
    build_sampled,
    build_sensitivities,
    eta_operators,
    expm,
    point_mass_hold,
    zero_order_hold,
)


def with_sensitivities(rho, spec):
    ops = assemble(spec, rho, with_grad=True)
    return ops, build_sensitivities(ops, build_sampled(ops, spec.tau))


class TestBuildSampled:
    def test_scalar_closed_form(self):
        # x' = -x + u held over tau = ln 2: Ahat = 1/2, Bhat = 1 - 1/2.
        ahat, bhat = zero_order_hold(np.array([[-1.0]]), np.array([[1.0]]), np.log(2.0))
        np.testing.assert_allclose(ahat, [[0.5]], rtol=1e-14)
        np.testing.assert_allclose(bhat, [[0.5]], rtol=1e-14)

    def test_tau_to_zero_limits(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, tau=1e-10)
        np.testing.assert_allclose(block_diag(*sys.A_blocks), np.eye(sys.dim), atol=1e-8)
        np.testing.assert_allclose(sys.bhat, 0.0, atol=1e-8)

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
        err = np.linalg.norm(((w2 / w)[:, None] * sys.bhat).reshape(-1) - oracle)
        assert err / np.linalg.norm(oracle) < 1e-9

    def test_semigroup_property(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        tau = spec_small.tau
        one = block_diag(*build_sampled(ops, tau).A_blocks)
        two = block_diag(*build_sampled(ops, 2 * tau).A_blocks)
        err = np.linalg.norm(one @ one - two) / np.linalg.norm(two)
        assert err < 1e-9

    def test_stability_random_params(self):
        rng = np.random.default_rng(17)
        spec = GridSpec(n=8, m1=3, m2=3, tau=1 / 12)
        for _ in range(20):
            sys = build_sampled(assemble(spec, random_rho(rng)), spec.tau)
            assert sys.spectral_radius() < 1.0

    def test_zero_mass_block_raises(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        ops.moments[0, 1] = 0.0
        with pytest.raises(SingularOperatorError):
            build_sampled(ops, tau=0.5)

    def test_tau_validation(self, rho_smooth, spec_small):
        with pytest.raises(ValueError):
            build_sampled(assemble(spec_small, rho_smooth), tau=0.0)

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_cells_are_the_single_q_blocks(self, rho_smooth, monkeypatch, n, m):
        # Cell c is the point mass at q1 = nu_c = w1_c / w_c: the population
        # and the single-q draws share one hold, bit for bit.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        ops = assemble(spec, rho_smooth)
        sys = build_sampled(ops, spec.tau)
        held = []

        def recording(nodes, n, tau):
            held.append((nodes, *point_mass_hold(nodes, n, tau)))
            return held[-1][1:]

        monkeypatch.setattr(forward, "point_mass_hold", recording)
        w, w1, _ = ops.moments
        forward.simulate_deterministic_batch(np.column_stack([w1 / w, np.ones_like(w)]),
                                             n, spec.tau, np.ones(3))
        (nodes, ahat, bhat), = held
        np.testing.assert_array_equal(sys.nodes, nodes)
        np.testing.assert_array_equal(sys.A_blocks, ahat)
        np.testing.assert_array_equal(sys.bhat, bhat)
        np.testing.assert_array_equal(sys.weights, ops.moments[2])


class TestExpm:
    @staticmethod
    def stacks(n, tau=1 / 12):
        # Point masses over Q1_GRID's range and their tangent blocks
        # [[G, G1], [0, G]] tau, as the holds exponentiate them.
        g0, g1, _ = eta_operators(n)
        gen = (g0 + Q1_GRID[:, None, None] * g1) * tau
        b = n + 1
        tangent = np.zeros((len(Q1_GRID), 2 * b, 2 * b))
        tangent[:, :b, :b] = tangent[:, b:, b:] = gen
        tangent[:, :b, b:] = g1 * tau
        return gen, tangent

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_scipy(self, n):
        # Relative to each block's largest entry.  The exponential's relative
        # condition number is at least |A| (Van Loan 1977), so on the blocks
        # of large norm (q1 near 1e3, |A|_1 up to 3e5) two methods may differ
        # by about eps |A|_1, and there the bound grows with it.
        for stack in self.stacks(n):
            got, ref = expm(stack), scipy.linalg.expm(stack)
            rel = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
            norm = np.abs(stack).sum(axis=1).max(axis=1)
            assert np.all(rel <= np.maximum(1e-12, np.finfo(float).eps * norm))
            assert rel[Q1_GRID <= 10].max() <= 1e-12

    def test_each_block_is_scaled_alone(self):
        # Every block has its own scaling power, so a block's exponential
        # does not depend on the stack it comes in.
        gen, tangent = self.stacks(8)
        for stack in (gen, tangent):
            whole = expm(stack)
            for i in (0, 12, 24):
                np.testing.assert_array_equal(whole[i], expm(stack[i:i + 1])[0])

    @pytest.mark.parametrize("scale", [1e20, 1e100, 1e300, np.inf, np.nan])
    def test_unresolvable_block_raises_without_warnings(self, scale):
        # A 1-norm beyond theta_13 2^52 needs more squarings than double
        # precision resolves; it raises before any product can overflow.
        gen, _ = self.stacks(4)
        gen[3] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="block 3"):
                expm(gen)


class TestEtaOperators:
    def test_one_factorization_per_n(self, rho_smooth, spec_small, monkeypatch):
        # Every build_sampled, build_sensitivities and single-q batch at one
        # n shares one factorization of the depth mass matrix.
        calls = []

        def counted(*args, _real=np.linalg.cholesky, **kwargs):
            calls.append(args[0].shape)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        eta_operators.cache_clear()
        first = eta_operators(spec_small.n)
        ops = assemble(spec_small, rho_smooth, with_grad=True)
        build_sensitivities(ops, build_sampled(ops, spec_small.tau))
        forward.simulate_deterministic_batch(np.array([[0.8, 1.2]]), spec_small.n,
                                             spec_small.tau, np.ones(3))
        assert calls == [(spec_small.block_size,) * 2]
        for cached, again in zip(first, eta_operators(spec_small.n)):
            assert cached is again
            assert not cached.flags.writeable


class TestTangentHold:
    build = staticmethod(with_sensitivities)

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
        _, sys = self.build(rho_smooth, spec_small)
        b = sys.block_size
        scale = max(np.abs(sys.A_blocks).max(), np.abs(sys.bhat).max())
        for got, want in ((sys.tangent_A[:, :b, :b], sys.A_blocks),
                          (sys.tangent_A[:, b:, b:], sys.A_blocks),
                          (sys.tangent_A[:, b:, :b], 0.0),
                          (sys.tangent_b[:, b:], sys.bhat)):
            assert np.abs(got - want).max() <= 1e-13 * scale

    def test_stack_matches_node_by_node(self, rho_smooth, spec_small):
        # build_sensitivities holds all nodes in one stacked call; each node
        # must come out bit for bit as from a system of that node alone.
        ops, sys = self.build(rho_smooth, spec_small)
        for c in range(sys.ncells):
            one = dataclasses.replace(ops, ncells=1, moments=ops.moments[:, [c]],
                                      dmoments=ops.dmoments[..., [c]])
            alone = build_sensitivities(one, build_sampled(one, spec_small.tau))
            np.testing.assert_array_equal(sys.tangent_A[c], alone.tangent_A[0])
            np.testing.assert_array_equal(sys.tangent_b[c], alone.tangent_b[0])

    def test_against_independent_frechet(self, rho_smooth, spec_small):
        # scipy's dedicated Frechet-derivative routine as a second path, on
        # the Galerkin generators: dAhat/dnu = L(G tau, G1 tau).
        ops, sys = self.build(rho_smooth, spec_small)
        b = sys.block_size
        g1 = -np.linalg.solve(eta_mass_matrix(spec_small.n), eta_stiffness_matrix(spec_small.n))
        for gen, upper in zip(galerkin_generator(ops), sys.tangent_A[:, :b, b:]):
            _, frechet = scipy.linalg.expm_frechet(gen * sys.tau, g1 * sys.tau)
            np.testing.assert_allclose(upper, frechet, rtol=1e-10, atol=1e-12)


class TestSensitivities:
    build = staticmethod(with_sensitivities)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_stack_equals_per_cell_reference(self, rho_smooth, n):
        # The reference factorizes every Galerkin mass block and solves
        # nine directions per cell.  Its input column is s_c = w2_c / w_c
        # times the node's, and its sensitivities follow by the chain rule
        # through the node nu_c and s_c; both agree with it to rounding.
        spec = GridSpec(n=n, m1=2, m2=2, tau=1 / 12)
        ops, sys = self.build(rho_smooth, spec)
        A, Agen, Bhat, dA, dBhat = per_cell_reference(ops, spec.tau)
        g0, g1, _ = eta_operators(n)
        b = sys.block_size
        dA_dnode, dbhat_dnode = sys.tangent_A[:, :b, b:], sys.tangent_b[:, :b]
        w, _, w2 = ops.moments
        dw, _, dw2 = ops.dmoments
        s = w2 / w
        ds = (dw2 - s * dw) / w
        galerkin_bhat = s[:, None] * sys.bhat
        galerkin_dbhat = (ds[:, :, None] * sys.bhat
                          + (s * sys.dnodes)[:, :, None] * dbhat_dnode)
        dA_k = sys.dnodes[:, :, None, None] * dA_dnode
        gen = g0 + sys.nodes[:, None, None] * g1
        for got, want in ((sys.A_blocks, A), (gen, Agen),
                          (galerkin_bhat.reshape(-1), Bhat), (dA_k, dA),
                          (galerkin_dbhat.reshape(len(ds), -1), dBhat)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_params", [1, 4, 9])
    def test_parameters_share_each_solve_call(self, rho_smooth, spec_small,
                                              monkeypatch, n_params):
        # Every parameter moves a cell through its moments alone, so all of
        # them share one stacked tangent hold (one exponential of all the
        # nodes' blocks), and the parameter count changes no bit of any
        # parameter's result.
        ops, full = self.build(rho_smooth, spec_small)
        sub = dataclasses.replace(ops, dmoments=ops.dmoments[:, :n_params])
        sys = build_sampled(sub, spec_small.tau)
        calls = []

        def counted(a, _real=sampled.expm):
            calls.append(a.shape)
            return _real(a)

        monkeypatch.setattr(sampled, "expm", counted)
        build_sensitivities(sub, sys)
        assert calls == [(sys.ncells, 2 * sys.block_size, 2 * sys.block_size)]
        np.testing.assert_array_equal(sys.tangent_A, full.tangent_A)
        np.testing.assert_array_equal(sys.tangent_b, full.tangent_b)
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
        assert sys.n_params == 9

    def test_matches_finite_differences(self, rho_smooth):
        from popdiff.density import RhoParams

        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        _, sys = self.build(rho_smooth, spec)
        b = sys.block_size
        base = rho_smooth.as_array()
        for k in range(9):
            h = 1e-6 * (1 + abs(base[k]))
            up, dn = base.copy(), base.copy()
            up[k] += h
            dn[k] -= h
            sys_up = build_sampled(assemble(spec, RhoParams.from_array(up)), spec.tau)
            sys_dn = build_sampled(assemble(spec, RhoParams.from_array(dn)), spec.tau)
            fdA = (block_diag(*sys_up.A_blocks) - block_diag(*sys_dn.A_blocks)) / (2 * h)
            fdB = (sys_up.bhat - sys_dn.bhat) / (2 * h)
            fdW = (sys_up.weights - sys_dn.weights) / (2 * h)
            dA = block_diag(*(sys.dnodes[k, :, None, None] * sys.tangent_A[:, :b, b:]))
            dB = sys.dnodes[k, :, None] * sys.tangent_b[:, :b]
            errA = np.linalg.norm(dA - fdA) / max(np.linalg.norm(fdA), 1e-10)
            errB = np.linalg.norm(dB - fdB) / max(np.linalg.norm(fdB), 1e-10)
            errW = np.linalg.norm(sys.dweights[k] - fdW) / max(np.linalg.norm(fdW), 1e-10)
            assert errA < 1e-5, k
            assert errB < 1e-5, k
            assert errW < 1e-5, k

    def test_requires_gradient_tensors(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, spec_small.tau)
        with pytest.raises(ValueError):
            build_sensitivities(ops, sys)
