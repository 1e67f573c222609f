import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import flat_index, galerkin_blocks, qcell_bounds, random_rho, truncated_moments

from popdiff.assembly import assemble
from popdiff.density import RhoParams, normalization, normalization_grad, phi_values
from popdiff.errors import DegenerateDensityError
from popdiff.grid import GridSpec, eta_mass_matrix, eta_stiffness_matrix
from popdiff.sampled import build_sampled


START = RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)


def nearly_uniform_rho(box=(1.5, 2.5, 0.5, 1.5), sigma=1e3):
    """Truncated normal so flat over the box it is uniform to ~1e-7."""
    a1, b1, a2, b2 = box
    return RhoParams(a1, b1, a2, b2, 0.5 * (a1 + b1), 0.5 * (a2 + b2),
                     sigma, 0.0, sigma)


class TestAssembleValues:
    def test_uniform_density_closed_form(self):
        # Uniform f on [1.5,2.5]x[0.5,1.5]: unit mass, E[q1]=2, E[q2]=1.
        spec = GridSpec(n=1, m1=1, m2=1, tau=0.1)
        M_blocks, K_blocks, Bvec, Cvec = galerkin_blocks(assemble(spec, nearly_uniform_rho()))
        np.testing.assert_allclose(
            block_diag(*M_blocks), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-5
        )
        np.testing.assert_allclose(block_diag(*K_blocks), [[3, -2], [-2, 2]], rtol=1e-5)
        np.testing.assert_allclose(Bvec, [0, 1], atol=1e-5)
        np.testing.assert_allclose(Cvec, [1, 0], atol=1e-5)

    def test_concentrated_density_leaves_off_cells_empty(self):
        # Nearly all mass in cell (1,1) of a 2x2 partition; the peak is
        # 25 sigma narrower than a cell, so resolving it takes a finer
        # rule (order 48 per axis).
        spec = GridSpec(n=2, m1=2, m2=2, tau=0.1)
        rho = RhoParams(0.5, 1.5, 0.5, 1.5, 0.75, 0.75, 0.02, 0.0, 0.02)
        M_blocks, K_blocks, _, Cvec = galerkin_blocks(
            assemble(spec, rho, quad_order=48))
        w = Cvec[::spec.block_size]
        assert w[0] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(w[1:]).max() < 1e-10
        for c in range(1, 4):
            assert np.abs(M_blocks[c]).max() < 1e-10
            assert np.abs(K_blocks[c]).max() < 1e-10
        # Default order also leaves off cells empty even though the
        # on-cell weight is then quadrature-limited.
        M8_blocks = galerkin_blocks(assemble(spec, rho))[0]
        for c in range(1, 4):
            assert np.abs(M8_blocks[c]).max() < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        spec = GridSpec(n=5, m1=3, m2=2, tau=0.1)
        for _ in range(5):
            M_blocks, K_blocks, _, _ = galerkin_blocks(assemble(spec, random_rho(rng)))
            M, K = block_diag(*M_blocks), block_diag(*K_blocks)
            np.testing.assert_allclose(M, M.T, atol=1e-15)
            np.testing.assert_allclose(K, K.T, atol=1e-13)

    def test_cell_weights_sum_to_one(self, rho_smooth):
        spec = GridSpec(n=3, m1=4, m2=4, tau=0.1)
        total = galerkin_blocks(assemble(spec, rho_smooth))[3].sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_block_diagonal_exact_zeros(self, rho_smooth):
        spec = GridSpec(n=2, m1=2, m2=3, tau=0.1)
        M = block_diag(*galerkin_blocks(assemble(spec, rho_smooth))[0])
        b = spec.block_size
        for c in range(spec.ncells):
            for c2 in range(spec.ncells):
                if c != c2:
                    block = M[c * b:(c + 1) * b, c2 * b:(c2 + 1) * b]
                    assert np.all(block == 0.0)

    def test_coercivity(self):
        rng = np.random.default_rng(4)
        spec = GridSpec(n=4, m1=2, m2=2, tau=0.1)
        for _ in range(10):
            M_blocks, K_blocks, _, _ = galerkin_blocks(assemble(spec, random_rho(rng)))
            v = rng.standard_normal(spec.dim)
            M, K = block_diag(*M_blocks), block_diag(*K_blocks)
            assert v @ K @ v >= -1e-12
            assert v @ (K + M) @ v > 0

    def test_refinement_consistency_uniform(self):
        # Sibling fine cells must reproduce the coarse weights when the
        # density is (numerically) constant.
        rho = nearly_uniform_rho(sigma=3e5)
        coarse = galerkin_blocks(assemble(GridSpec(n=1, m1=2, m2=2, tau=0.1), rho))[3]
        fine = galerkin_blocks(assemble(GridSpec(n=1, m1=4, m2=4, tau=0.1), rho))[3]
        wc = coarse[::2].reshape(2, 2, order="F")
        wf = fine[::2].reshape(4, 4, order="F")
        sib = wf.reshape(2, 2, 2, 2, order="F").sum(axis=(1, 3))
        # reshape above groups (fine1 pairs, fine2 pairs); verify via sums
        assert sib.sum() == pytest.approx(wc.sum(), rel=1e-12)
        np.testing.assert_allclose(sib, wc, rtol=1e-10)

    def test_cells_follow_the_flat_index(self, rho_smooth):
        # Cell (j1, j2) holds the density's moments (1, q1, q2) over
        # qcell_bounds' rectangle, at the position flat_index gives: the
        # block holding eta node 0 is read with that cell's weight w2, and
        # the Galerkin input sits at node n.
        # Oracle: a 24-node Gauss rule per cell axis; assembly uses 8, so
        # they agree to 1e-8 relative; distinct cells differ by far more.
        spec = GridSpec(n=2, m1=3, m2=2, tau=0.1)
        ops = assemble(spec, rho_smooth)
        Bvec = galerkin_blocks(ops)[2]
        weights = build_sampled(ops, spec.tau).weights
        x, w = np.polynomial.legendre.leggauss(24)
        norm = normalization(rho_smooth)
        for j2 in range(1, spec.m2 + 1):
            for j1 in range(1, spec.m1 + 1):
                (lo1, hi1), (lo2, hi2) = (qcell_bounds(axis, j, rho_smooth.box, m)
                                          for axis, j, m in ((1, j1, spec.m1),
                                                             (2, j2, spec.m2)))
                q1 = 0.5 * (lo1 + hi1) + 0.5 * (hi1 - lo1) * x
                q2 = 0.5 * (lo2 + hi2) + 0.5 * (hi2 - lo2) * x
                f = phi_values(q1[:, None], q2[None, :], rho_smooth) / norm
                w1, w2 = 0.5 * (hi1 - lo1) * w, 0.5 * (hi2 - lo2) * w
                c = (j1 - 1) + spec.m1 * (j2 - 1)
                expected = [w1 @ f @ w2, (w1 * q1) @ f @ w2, w1 @ f @ (w2 * q2)]
                np.testing.assert_allclose(ops.moments[:, c], expected, rtol=1e-7)
                block = flat_index(0, j1, j2, spec) // spec.block_size
                assert weights[block] == ops.moments[2, c]
                assert Bvec[flat_index(spec.n, j1, j2, spec)] == ops.moments[2, c]

    def test_gamma_floor_rejection(self):
        spec = GridSpec(n=1, m1=2, m2=2, tau=0.1)
        rho = RhoParams(0.5, 1.5, 0.5, 1.5, 0.75, 0.75, 0.02, 0.0, 0.02)
        with pytest.raises(DegenerateDensityError):
            assemble(spec, rho, gamma_floor=1e-10)
        ops = assemble(spec, rho)  # no floor: matrices still delivered
        assert ops.f_min < 1e-10


def fd_moments(spec, rho, k, h, quad_order=8):
    base = rho.as_array()
    up, dn = base.copy(), base.copy()
    up[k] += h
    dn[k] -= h
    m_up = assemble(spec, RhoParams.from_array(up), quad_order).moments
    m_dn = assemble(spec, RhoParams.from_array(dn), quad_order).moments
    return (m_up - m_dn) / (2 * h)


class TestAssembleGrad:
    def test_matches_finite_differences(self):
        # The oracle is criterion 01's: Richardson's extrapolation of two
        # central differences, (4 D(h/2) - D(h)) / 3, truncation error
        # O(h^4).  The last box cuts the density's bulk, so the bound
        # terms dominate its derivatives.
        rng = np.random.default_rng(21)
        spec = GridSpec(n=3, m1=3, m2=2, tau=0.1)
        rhos = [random_rho(rng) for _ in range(3)]
        rhos.append(RhoParams(0.5, 1.1, 0.6, 1.6, 0.7, 1.1, 0.18, 0.05, 0.25))
        for rho in rhos:
            ops = assemble(spec, rho, with_grad=True)
            base = rho.as_array()
            for k in range(9):
                h = 1e-3 * (1 + abs(base[k]))
                fd = (4 * fd_moments(spec, rho, k, h / 2) - fd_moments(spec, rho, k, h)) / 3
                for i in range(3):
                    an = ops.dmoments[i, k]
                    scale = max(np.linalg.norm(fd[i]), 1e-10)
                    assert np.linalg.norm(an - fd[i]) / scale < 1e-8, (i, k, rho)

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4), (16, 8)])
    def test_operators_do_not_depend_on_with_grad(self, n, m):
        # The objective samples the cost pass's operators and takes only the
        # derivative tensors from a with_grad assembly; that is exact only
        # because with_grad leaves every bit of the operators unchanged.
        # The moments fix every operator block.
        spec = GridSpec(n=n, m1=m, m2=m, tau=1 / 12)
        rng = np.random.default_rng(n)
        rhos = [RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25),
                RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)]
        rhos += [random_rho(rng) for _ in range(38)]
        for rho in rhos:
            plain = assemble(spec, rho)
            full = assemble(spec, rho, with_grad=True)
            for name in ("f_min", "moments"):
                np.testing.assert_array_equal(getattr(full, name), getattr(plain, name),
                                              err_msg=f"{name} at {rho}")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_law_has_unit_mass(self, m):
        # The cell weights are normalized by their own sum, so they form a
        # probability law to rounding: sum_c w_c = 1 and sum_c dw_c = 0 in
        # every parameter, within a few ulps.  A single cell spanning the
        # box (m = 1) holds weight one exactly.  The derivative's ulps are
        # those of its terms: sum_c |dw_c| and d log N (N the box's mass).
        spec = GridSpec(n=2, m1=m, m2=m, tau=0.1)
        rng = np.random.default_rng(m)
        rhos = [START, RhoParams(0.3, 1.1, 0.3, 1.1, 0.7, 0.7, 0.15, 0.0, 0.15),
                RhoParams(0.5, 1.1, 0.6, 1.6, 0.7, 1.1, 0.18, 0.05, 0.25)]
        rhos += [random_rho(rng) for _ in range(10)]
        ulps = 4 * np.finfo(float).eps
        for rho in rhos:
            ops = assemble(spec, rho, with_grad=True)
            w, dw = ops.moments[0], ops.dmoments[0]
            assert abs(w.sum() - 1) <= ulps, rho
            scale = np.abs(dw).sum(axis=1) + np.abs(normalization_grad(rho) / normalization(rho))
            assert np.all(np.abs(dw.sum(axis=1)) <= ulps * scale), rho
            if m == 1:
                assert w[0] == 1 and np.all(dw == 0), rho

    def test_stiffness_derivative_tracks_truncated_mean(self):
        # For one cell w = 1, so dK/dmu1 = dw e0 e0^T + dw1 K_eta is
        # K_eta * d E[q1] / dmu1.
        spec = GridSpec(n=2, m1=1, m2=1, tau=0.1)
        rho = RhoParams(0.3, 1.1, 0.3, 1.1, 0.7, 0.7, 0.15, 0.0, 0.15)
        ops = assemble(spec, rho, quad_order=24, with_grad=True)
        h = 1e-6
        up = RhoParams.from_array(rho.as_array() + h * np.eye(9)[4])
        dn = RhoParams.from_array(rho.as_array() - h * np.eye(9)[4])
        dmean = (truncated_moments(up)[0][0] - truncated_moments(dn)[0][0]) / (2 * h)
        dw, dw1, _ = ops.dmoments[:, 4, 0]
        dK = dw * np.diag([1.0, 0.0, 0.0]) + dw1 * eta_stiffness_matrix(2)
        np.testing.assert_allclose(dK, dmean * eta_stiffness_matrix(2), rtol=1e-6, atol=1e-9)

