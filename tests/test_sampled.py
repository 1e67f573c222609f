import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag

from conftest import per_cell_reference, random_rho

from popdiff.assembly import AssembledOperators, assemble
from popdiff.errors import SingularOperatorError
from popdiff.grid import GridSpec
from popdiff.sampled import augmented_expm, build_sampled, build_sensitivities, eta_operators


def scalar_ops(m=1.0, k=1.0, b=1.0, c=1.0):
    return AssembledOperators(
        block_size=1, ncells=1, M_blocks=np.array([[[m]]], dtype=float),
        K_blocks=np.array([[[k]]], dtype=float), Bvec=np.array([b], dtype=float),
        Cvec=np.array([c], dtype=float), f_min=np.inf,
        moments=np.full((3, 1), np.nan),  # build_sampled reads the blocks only
    )


class TestBuildSampled:
    def test_scalar_closed_form(self):
        sys = build_sampled(scalar_ops(), tau=np.log(2.0))
        np.testing.assert_allclose(block_diag(*sys.Agen_blocks), [[-1.0]])
        np.testing.assert_allclose(block_diag(*sys.A_blocks), [[0.5]], rtol=1e-14)
        np.testing.assert_allclose(sys.Bhat, [0.5], rtol=1e-14)

    def test_tau_to_zero_limits(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, tau=1e-10)
        np.testing.assert_allclose(block_diag(*sys.A_blocks), np.eye(sys.dim), atol=1e-8)
        np.testing.assert_allclose(sys.Bhat, 0.0, atol=1e-8)

    def test_bhat_matches_quadrature(self, rho_smooth, spec_small):
        # Oracle: 64-node Gauss-Legendre of exp(Agen s) beta over [0, tau].
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, tau=spec_small.tau)
        beta = np.linalg.solve(block_diag(*ops.M_blocks), ops.Bvec)
        agen = block_diag(*sys.Agen_blocks)
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * spec_small.tau * (x + 1)
        ws = 0.5 * spec_small.tau * w
        oracle = sum(
            wi * (scipy.linalg.expm(agen * si) @ beta) for si, wi in zip(s, ws)
        )
        err = np.linalg.norm(sys.Bhat - oracle) / np.linalg.norm(oracle)
        assert err < 1e-9

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

    def test_zero_mass_block_raises(self):
        ops = scalar_ops(m=0.0)
        with pytest.raises(SingularOperatorError):
            build_sampled(ops, tau=0.5)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            build_sampled(scalar_ops(), tau=0.0)


class TestAugmentedExpm:
    def test_scalar_direction_closed_form(self):
        # d exp(a t) / da = t exp(a t).
        a, tau = -0.8, 0.6
        upper, lower = augmented_expm(np.array([[a]]), np.array([[1.0]]), tau)
        np.testing.assert_allclose(upper, [[tau * np.exp(a * tau)]], rtol=1e-12)
        np.testing.assert_allclose(lower, [[np.exp(a * tau)]], rtol=1e-12)

    def test_lower_block_is_plain_exponential(self, rho_smooth, spec_small):
        sys = build_sampled(assemble(spec_small, rho_smooth), spec_small.tau)
        _, g1, _ = eta_operators(spec_small.n)
        _, lower = augmented_expm(sys.Agen_blocks, g1, spec_small.tau)
        assert np.abs(lower - sys.A_blocks).max() < 1e-10

    def test_stack_matches_slice_by_slice(self):
        # build_sensitivities passes whole (ncells, b, b) stacks; each slice
        # must come out bit for bit as from a call on that slice alone.
        rng = np.random.default_rng(5)
        gen = -np.eye(4) + 0.2 * rng.standard_normal((3, 4, 4))
        direction = rng.standard_normal((3, 4, 4))
        upper, lower = augmented_expm(gen, direction, 0.4)
        assert upper.shape == lower.shape == (3, 4, 4)
        for c in range(3):
            one_upper, one_lower = augmented_expm(gen[c], direction[c], 0.4)
            np.testing.assert_array_equal(upper[c], one_upper)
            np.testing.assert_array_equal(lower[c], one_lower)

    def test_against_independent_frechet(self):
        # scipy's dedicated Frechet-derivative routine as a second path.
        rng = np.random.default_rng(3)
        gen = -np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        direction = rng.standard_normal((5, 5))
        upper, _ = augmented_expm(gen, direction, 1.0)
        _, frechet = scipy.linalg.expm_frechet(gen, direction)
        np.testing.assert_allclose(upper, frechet, rtol=1e-10, atol=1e-12)


class TestSensitivities:
    def build(self, rho, spec):
        ops = assemble(spec, rho, with_grad=True)
        sys = build_sampled(ops, spec.tau)
        return ops, build_sensitivities(ops, sys)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_stack_equals_per_cell_reference(self, rho_smooth, n):
        # The operators: same arithmetic on the same blocks, so bit-identical.
        # The sensitivities: the reference solves and exponentiates nine
        # directions per cell, so they agree to rounding.
        spec = GridSpec(n=n, m1=2, m2=2, tau=1 / 12)
        ops, sys = self.build(rho_smooth, spec)
        A, Agen, Bhat, dA, dBhat = per_cell_reference(ops, spec.tau)
        np.testing.assert_array_equal(sys.A_blocks, A)
        np.testing.assert_array_equal(sys.Agen_blocks, Agen)
        np.testing.assert_array_equal(sys.Bhat, Bhat)
        assert np.abs(sys.dA_blocks - dA).max() <= 1e-12 * np.abs(dA).max()
        assert np.abs(sys.dBhat - dBhat).max() <= 1e-12 * np.abs(dBhat).max()

    @pytest.mark.parametrize("n_params", [1, 4, 9])
    def test_parameters_share_each_solve_call(self, rho_smooth, spec_small,
                                              monkeypatch, n_params):
        # Every parameter moves a cell through its moments alone, so all of
        # them share one stacked exponential in the one direction G1, and
        # the parameter count changes no bit of any parameter's result.
        ops, full = self.build(rho_smooth, spec_small)
        sub = dataclasses.replace(ops, dmoments=ops.dmoments[:, :n_params],
                                  dM_blocks=ops.dM_blocks[:n_params])
        sys = build_sampled(sub, spec_small.tau)
        calls = {"expm": 0, "lu_solve": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(scipy.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, counted)
        build_sensitivities(sub, sys)
        assert calls == {"expm": 1, "lu_solve": 0}
        np.testing.assert_array_equal(sys.dA_blocks, full.dA_blocks[:n_params])
        np.testing.assert_array_equal(sys.dBhat, full.dBhat[:n_params])

    def test_dchat_is_assembled_gradient(self, rho_smooth, spec_small):
        # Chat holds the cell masses w_c at each block's state 0.
        ops, sys = self.build(rho_smooth, spec_small)
        dchat = sys.dChat.reshape(9, spec_small.ncells, spec_small.block_size)
        np.testing.assert_array_equal(dchat[:, :, 0], ops.dmoments[0])
        assert np.all(dchat[:, :, 1:] == 0.0)

    def test_matches_finite_differences(self, rho_smooth):
        from popdiff.density import RhoParams

        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        _, sys = self.build(rho_smooth, spec)
        base = rho_smooth.as_array()
        for k in range(9):
            h = 1e-6 * (1 + abs(base[k]))
            up, dn = base.copy(), base.copy()
            up[k] += h
            dn[k] -= h
            sys_up = build_sampled(assemble(spec, RhoParams.from_array(up)), spec.tau)
            sys_dn = build_sampled(assemble(spec, RhoParams.from_array(dn)), spec.tau)
            fdA = (block_diag(*sys_up.A_blocks) - block_diag(*sys_dn.A_blocks)) / (2 * h)
            fdB = (sys_up.Bhat - sys_dn.Bhat) / (2 * h)
            dA = block_diag(*sys.dA_blocks[k])
            errA = np.linalg.norm(dA - fdA) / max(np.linalg.norm(fdA), 1e-10)
            errB = np.linalg.norm(sys.dBhat[k] - fdB) / max(np.linalg.norm(fdB), 1e-10)
            assert errA < 1e-5, k
            assert errB < 1e-5, k

    def test_requires_gradient_tensors(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth)
        sys = build_sampled(ops, spec_small.tau)
        with pytest.raises(ValueError):
            build_sensitivities(ops, sys)
