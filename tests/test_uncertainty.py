import numpy as np
import pytest

from conftest import pulse_input

from popdiff.density import RhoParams, sample_array
from popdiff.forward import simulate_deterministic
from popdiff.grid import GridSpec
from popdiff.uncertainty import credible_band, sample_trajectories


@pytest.fixture
def band_spec():
    return GridSpec(n=8, m1=2, m2=2, tau=1 / 12)


@pytest.fixture
def band_input(band_spec):
    return pulse_input(36, band_spec.tau)


class TestCredibleBand:
    def test_point_mass_collapse(self, band_spec, band_input):
        q_star = (0.7, 1.1)
        hw = 5e-4
        rho = RhoParams(q_star[0] - hw, q_star[0] + hw,
                        q_star[1] - hw, q_star[1] + hw,
                        q_star[0], q_star[1], 1e-4, 0.0, 1e-4)
        band = credible_band(rho, band_spec, band_input, nsamples=200, seed=1)
        assert band.width.max() < 1e-3
        det = simulate_deterministic(q_star, band_spec.n, band_spec.tau, band_input)
        assert np.abs(band.mean_output - det).max() < 1e-3

    def test_quantile_coverage(self, rho_smooth, band_spec, band_input):
        nsamples = 1000
        band = credible_band(rho_smooth, band_spec, band_input,
                             level=0.75, nsamples=nsamples, seed=2)
        trajectories = sample_trajectories(rho_smooth, band_spec, band_input,
                                           nsamples, seed=2)
        spread = band.width > 1e-12
        inside = (
            (trajectories >= band.lower[None, :])
            & (trajectories <= band.upper[None, :])
        ).mean(axis=0)
        # 3 binomial standard errors at level 0.75, n = 1000
        tol = 3 * np.sqrt(0.75 * 0.25 / nsamples)
        assert np.all(np.abs(inside[spread] - 0.75) < tol + 2 / nsamples)

    def test_mean_output_inside_band(self, rho_smooth, band_spec, band_input):
        band = credible_band(rho_smooth, band_spec, band_input,
                             level=0.75, nsamples=1000, seed=3)
        ok = (band.mean_output >= band.lower - 1e-12) & (
            band.mean_output <= band.upper + 1e-12
        )
        assert ok.mean() >= 0.95

    def test_seed_determinism(self, rho_smooth, band_spec, band_input):
        a = credible_band(rho_smooth, band_spec, band_input, nsamples=300, seed=7)
        b = credible_band(rho_smooth, band_spec, band_input, nsamples=300, seed=7)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.mean_output, b.mean_output)

    def test_levels_nest(self, rho_smooth, band_spec, band_input):
        narrow = credible_band(rho_smooth, band_spec, band_input,
                               level=0.5, nsamples=500, seed=4)
        wide = credible_band(rho_smooth, band_spec, band_input,
                             level=0.9, nsamples=500, seed=4)
        assert np.all(narrow.lower >= wide.lower - 1e-14)
        assert np.all(narrow.upper <= wide.upper + 1e-14)

    def test_width_shrinks_with_sigma(self, band_spec, band_input):
        widths = []
        for scale in (1.0, 0.5, 0.25):
            rho = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1,
                            0.15 * scale, 0.0, 0.2 * scale)
            band = credible_band(rho, band_spec, band_input, nsamples=400, seed=5)
            widths.append(band.width.max())
        assert widths[0] > widths[1] > widths[2]

    def test_band_equals_quantiles_of_per_draw_solves(self, rho_smooth, band_spec, band_input):
        # Pins the batched band to the path it replaced: per-draw
        # simulate_deterministic at the same draws, then np.quantile.
        nsamples, seed, level = 300, 8, 0.75
        band = credible_band(rho_smooth, band_spec, band_input,
                             level=level, nsamples=nsamples, seed=seed)
        looped = np.array([
            simulate_deterministic(q, band_spec.n, band_spec.tau, band_input)
            for q in sample_array(rho_smooth, nsamples, seed)
        ])
        lo = (1.0 - level) / 2.0
        scale = np.abs(looped).max()
        np.testing.assert_allclose(band.lower, np.quantile(looped, lo, axis=0),
                                   rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(band.upper, np.quantile(looped, 1.0 - lo, axis=0),
                                   rtol=1e-12, atol=1e-12 * scale)

    def test_validation(self, rho_smooth, band_spec, band_input):
        with pytest.raises(ValueError):
            credible_band(rho_smooth, band_spec, band_input, level=1.2)
        with pytest.raises(ValueError):
            credible_band(rho_smooth, band_spec, band_input, nsamples=50)


class TestPointwiseEvaluationComparison:
    def test_resolved_samples_match_tensor_state_readout(self, band_spec):
        # The tensor-basis population state, read pointwise at q, equals
        # the single-q solve at the cell-conditional mean; per-sample
        # re-solving must agree with that readout as cells shrink.
        from conftest import truncated_moments

        from popdiff.forward import population_system, simulate

        rho = RhoParams(0.5, 0.9, 0.9, 1.3, 0.7, 1.1, 0.08, 0.0, 0.08)
        u = pulse_input(24, band_spec.tau)
        spec = GridSpec(n=band_spec.n, m1=1, m2=1, tau=band_spec.tau)
        sys = population_system(rho, spec)
        _, states = simulate(sys, u, return_states=True)
        # Pointwise readout at any q in the single cell: eta = 0
        # coefficient of that cell's block.
        readout = states[:, 0]
        mean, _ = truncated_moments(rho)
        resolved = simulate_deterministic(mean, spec.n, spec.tau, u)
        np.testing.assert_allclose(readout, resolved, atol=2e-3)
