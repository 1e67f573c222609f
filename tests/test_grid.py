import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_index, hat_eval, qcell_bounds

from popdiff.grid import GridSpec, QBox, eta_mass_matrix, eta_stiffness_matrix


# hat_eval, qcell_bounds and flat_index are test oracles kept in conftest:
# the first for the depth mass matrix (TestEtaMatrices), the other two for
# where assembly puts each cell (test_assembly.py).


class TestHatEval:
    def test_left_endpoint_node(self):
        assert hat_eval(0, 4, 0.0) == 1.0

    def test_peak_at_own_node(self):
        assert hat_eval(2, 4, 0.5) == 1.0

    def test_linear_midpoint(self):
        assert hat_eval(2, 4, 0.375) == 0.5

    def test_zero_outside_support(self):
        assert hat_eval(0, 4, 0.5) == 0.0
        assert hat_eval(4, 4, 0.5) == 0.0

    def test_eta_out_of_domain(self):
        with pytest.raises(ValueError):
            hat_eval(0, 4, -0.1)
        with pytest.raises(ValueError):
            hat_eval(0, 4, 1.0001)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            hat_eval(5, 4, 0.5)

    @given(
        n=st.integers(min_value=1, max_value=50),
        eta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, n, eta):
        total = sum(hat_eval(j, n, eta) for j in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestQCells:
    def test_uniform_halving(self):
        box = QBox(1.0, 3.0, 0.5, 1.0)
        assert qcell_bounds(1, 1, box, 2) == (1.0, 2.0)
        assert qcell_bounds(1, 2, box, 2) == (2.0, 3.0)

    def test_single_cell_is_whole_interval(self):
        box = QBox(1.0, 3.0, 0.5, 0.5001)
        assert qcell_bounds(2, 1, box, 1) == (0.5, 0.5001)

    def test_index_out_of_range(self):
        box = QBox(1.0, 3.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            qcell_bounds(1, 0, box, 2)
        with pytest.raises(ValueError):
            qcell_bounds(1, 3, box, 2)
        with pytest.raises(ValueError):
            qcell_bounds(3, 1, box, 2)

    @given(
        m=st.integers(min_value=1, max_value=40),
        lo=st.floats(min_value=0.01, max_value=5.0),
        width=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cells_tile_interval(self, m, lo, width):
        box = QBox(lo, lo + width, 0.1, 0.2)
        bounds = [qcell_bounds(1, j, box, m) for j in range(1, m + 1)]
        assert bounds[0][0] == pytest.approx(lo)
        assert bounds[-1][1] == pytest.approx(lo + width)
        for left, right in zip(bounds[:-1], bounds[1:]):
            assert left[1] == right[0]


class TestFlatIndex:
    def test_first_indices(self):
        spec = GridSpec(n=1, m1=2, m2=2, tau=0.1)
        assert flat_index(0, 1, 1, spec) == 0
        assert flat_index(1, 1, 1, spec) == 1

    def test_lexicographic_enumeration(self):
        # Enumerate the 8-element eta-fastest order by hand.
        spec = GridSpec(n=1, m1=2, m2=2, tau=0.1)
        order = [
            (j, j1, j2)
            for j2 in (1, 2)
            for j1 in (1, 2)
            for j in (0, 1)
        ]
        assert order.index((0, 2, 2)) == 6
        assert flat_index(0, 2, 2, spec) == 6
        for flat, (j, j1, j2) in enumerate(order):
            assert flat_index(j, j1, j2, spec) == flat

    def test_out_of_range(self):
        spec = GridSpec(n=1, m1=2, m2=2, tau=0.1)
        for bad in [(2, 1, 1), (0, 0, 1), (0, 3, 1), (0, 1, 0), (0, 1, 3)]:
            with pytest.raises(ValueError):
                flat_index(*bad, spec)

    @given(
        n=st.integers(min_value=1, max_value=6),
        m1=st.integers(min_value=1, max_value=5),
        m2=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, n, m1, m2):
        spec = GridSpec(n=n, m1=m1, m2=m2, tau=0.5)
        seen = set()
        for j2 in range(1, m2 + 1):
            for j1 in range(1, m1 + 1):
                for j in range(n + 1):
                    flat = flat_index(j, j1, j2, spec)
                    cell, j_back = divmod(flat, spec.n + 1)
                    assert (j_back, cell % m1 + 1, cell // m1 + 1) == (j, j1, j2)
                    seen.add(flat)
        assert seen == set(range(spec.dim))


class TestEtaMatrices:
    def test_mass_matrix_n1(self):
        np.testing.assert_allclose(
            eta_mass_matrix(1), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]]
        )

    def test_stiffness_matrix_n1(self):
        np.testing.assert_allclose(eta_stiffness_matrix(1), [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_mass_against_quadrature(self, n):
        # Independent oracle: 12-node Gauss-Legendre per subinterval is
        # exact for the piecewise-quadratic products.
        x, w = np.polynomial.legendre.leggauss(12)
        expected = np.zeros((n + 1, n + 1))
        for k in range(n):
            lo, hi = k / n, (k + 1) / n
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            wts = 0.5 * (hi - lo) * w
            vals = np.array([[hat_eval(j, n, p) for p in pts] for j in range(n + 1)])
            expected += (vals * wts) @ vals.T
        np.testing.assert_allclose(eta_mass_matrix(n), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_stiffness_row_sums_vanish(self, n):
        # Derivative of the constant function is zero.
        np.testing.assert_allclose(
            eta_stiffness_matrix(n) @ np.ones(n + 1), 0.0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_mass_row_sums_are_hat_integrals(self, n):
        sums = eta_mass_matrix(n) @ np.ones(n + 1)
        expected = np.full(n + 1, 1.0 / n)
        expected[0] = expected[-1] = 0.5 / n
        np.testing.assert_allclose(sums, expected)


class TestSpecValidation:
    def test_grid_spec_rejects_bad_sizes(self):
        for bad in [dict(n=0, m1=1, m2=1, tau=1.0), dict(n=1, m1=0, m2=1, tau=1.0),
                    dict(n=1, m1=1, m2=1, tau=0.0)]:
            with pytest.raises(ValueError):
                GridSpec(**bad)

    def test_qbox_ordering_and_floors(self):
        with pytest.raises(ValueError):
            QBox(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            QBox(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            QBox(0.5, 1.0, -0.1, 1.0)

    def test_dimension(self):
        assert GridSpec(n=4, m1=3, m2=2, tau=0.25).dim == 30
