import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag

from conftest import random_rho

from popdiff.assembly import AssembledOperators, assemble
from popdiff.errors import SingularOperatorError
from popdiff.grid import GridSpec
from popdiff.sampled import augmented_expm, build_sampled, build_sensitivities


def scalar_ops(m=1.0, k=1.0, b=1.0, c=1.0):
    return AssembledOperators(
        block_size=1, ncells=1, M_blocks=np.array([[[m]]], dtype=float),
        K_blocks=np.array([[[k]]], dtype=float), Bvec=np.array([b], dtype=float),
        Cvec=np.array([c], dtype=float), f_min=np.inf,
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

    def test_zero_direction_gives_exact_zero(self):
        rng = np.random.default_rng(0)
        gen = -np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        upper, _ = augmented_expm(gen, np.zeros((4, 4)), 0.7)
        assert np.all(upper == 0.0)

    def test_lower_block_is_plain_exponential(self, rho_smooth, spec_small):
        ops = assemble(spec_small, rho_smooth, with_grad=True)
        sys = build_sampled(ops, spec_small.tau)
        for c in (0, spec_small.ncells - 1):
            gen = sys.Agen_blocks[c]
            dgen = -np.linalg.solve(
                ops.M_blocks[c], ops.dK_blocks[4, c] + ops.dM_blocks[4, c] @ gen
            )
            _, lower = augmented_expm(gen, dgen, spec_small.tau)
            err = np.abs(lower - sys.A_blocks[c]).max()
            assert err < 1e-10

    def test_stack_matches_slice_by_slice(self):
        # build_sensitivities passes whole (ncells, b, b) stacks; each slice
        # must come out bit for bit as from a call on that slice alone, and
        # a zero direction inside a stack still gives an exact zero.
        rng = np.random.default_rng(5)
        gen = -np.eye(4) + 0.2 * rng.standard_normal((3, 4, 4))
        direction = rng.standard_normal((3, 4, 4))
        direction[1] = 0.0
        upper, lower = augmented_expm(gen, direction, 0.4)
        assert upper.shape == lower.shape == (3, 4, 4)
        assert np.all(upper[1] == 0.0)
        for c in (0, 2):
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


def per_cell_reference(ops, tau):
    """The sampled operators and sensitivities one cell at a time, with
    2-D calls only: the loop that the whole-stack code replaced."""
    b, ncells = ops.block_size, ops.ncells
    n_params = ops.dM_blocks.shape[0]
    bvec = ops.Bvec.reshape(ncells, b)
    dbvec = ops.dB.reshape(n_params, ncells, b)
    A = np.empty((ncells, b, b))
    Agen = np.empty((ncells, b, b))
    Bhat = np.empty((ncells, b))
    dA = np.empty((n_params, ncells, b, b))
    dBhat = np.empty((n_params, ncells, b))
    for c in range(ncells):
        factor = scipy.linalg.cho_factor(ops.M_blocks[c])
        Agen[c] = -scipy.linalg.cho_solve(factor, ops.K_blocks[c])
        gen = Agen[c]
        A[c] = scipy.linalg.expm(gen * tau)
        beta = scipy.linalg.cho_solve(factor, bvec[c])
        Bhat[c] = (A[c] - np.eye(b)) @ np.linalg.solve(gen, beta)
        gen_lu = scipy.linalg.lu_factor(gen)
        x = scipy.linalg.lu_solve(gen_lu, beta)
        for k in range(n_params):
            dgen = -scipy.linalg.cho_solve(
                factor, ops.dK_blocks[k, c] + ops.dM_blocks[k, c] @ gen
            )
            aug = np.block([[gen, dgen], [np.zeros((b, b)), gen]])
            dA[k, c] = scipy.linalg.expm(aug * tau)[:b, b:] if dgen.any() else 0.0
            dbeta = scipy.linalg.cho_solve(factor, dbvec[k, c] - ops.dM_blocks[k, c] @ beta)
            dBhat[k, c] = dA[k, c] @ x + (A[c] - np.eye(b)) @ scipy.linalg.lu_solve(
                gen_lu, dbeta - dgen @ x
            )
    return A, Agen, Bhat.reshape(-1), dA, dBhat.reshape(n_params, -1)


class TestSensitivities:
    def build(self, rho, spec):
        ops = assemble(spec, rho, with_grad=True)
        sys = build_sampled(ops, spec.tau)
        return ops, build_sensitivities(ops, sys)

    def test_stack_equals_per_cell_reference(self, rho_smooth):
        # Same arithmetic on the same blocks: bit-identical, not just close.
        # At n = 16 a generator stored in Fortran order changes the
        # rounding of dM @ gen; at n <= 12 it does not.
        spec = GridSpec(n=16, m1=2, m2=2, tau=1 / 12)
        ops, sys = self.build(rho_smooth, spec)
        A, Agen, Bhat, dA, dBhat = per_cell_reference(ops, spec.tau)
        np.testing.assert_array_equal(sys.A_blocks, A)
        np.testing.assert_array_equal(sys.Agen_blocks, Agen)
        np.testing.assert_array_equal(sys.Bhat, Bhat)
        np.testing.assert_array_equal(sys.dA_blocks, dA)
        np.testing.assert_array_equal(sys.dBhat, dBhat)

    def test_dchat_is_assembled_gradient(self, rho_smooth, spec_small):
        ops, sys = self.build(rho_smooth, spec_small)
        np.testing.assert_array_equal(sys.dChat, ops.dC)

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
