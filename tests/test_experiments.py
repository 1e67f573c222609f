import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from popdiff import experiments
from popdiff.dataio import PulseSpec, generate_synthetic
from popdiff.density import RhoParams
from popdiff.errors import PopdiffError
from popdiff.experiments import TrendReport, consistency_trend, refinement_trend
from popdiff.grid import GridSpec
from popdiff.optimizer import FitOptions


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def rho0():
    return RhoParams(0.25, 1.3, 0.35, 1.9, 0.75, 1.05, 0.18, 0.03, 0.24)


class TestTrendReport:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            TrendReport("nu", [2, 2, 4], [1.0, 0.5, 0.2], True, [])
        with pytest.raises(ValueError):
            TrendReport("nu", [2, 4], [1.0], True, [])

    def test_serialization(self):
        report = TrendReport("nu", [2, 4, 8], [0.3, 0.2, 0.1], True,
                             [{"level": 2, "seed": 0, "error": 0.3}])
        payload = json.loads(report.to_json())
        assert payload["levels"] == [2, 4, 8]
        assert payload["monotone"] is True
        assert "proof" in payload["note"]
        lines = report.to_csv().splitlines()
        assert lines[0] == "# popdiff-trend v1"
        assert lines[2] == "level,median_error"
        assert lines[3] == "2,0.3"


class TestConsistencyTrend:
    def test_structure_and_provenance(self, rho0):
        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 6)
        report = consistency_trend(
            rho0, spec, nu_levels=[2, 3, 4], seeds=5, noise_sigma=0.005,
            steps0=8, pulse_spec=PulseSpec(duration_h=8 / 6, width_h=(0.3, 0.8)),
            fit_options=FitOptions(max_iter=30),
        )
        assert report.axis == "nu"
        assert report.levels == [2, 3, 4]
        assert len(report.cells) == 15
        for cell in report.cells:
            assert {"level", "seed", "tau", "steps", "noise_sigma",
                    "status"} <= set(cell)
        # horizon fixed: steps doubles as tau halves
        taus = sorted({c["tau"] for c in report.cells}, reverse=True)
        steps = sorted({c["steps"] for c in report.cells})
        assert len(taus) == 3
        np.testing.assert_allclose(
            [t * s for t, s in zip(taus, steps)], 8 / 6 * np.ones(3)
        )

    def test_zero_noise_errors_near_floor(self, rho0):
        spec = GridSpec(n=2, m1=2, m2=2, tau=1 / 6)
        report = consistency_trend(
            rho0, spec, nu_levels=[2, 3, 4], seeds=5, noise_sigma=0.0,
            steps0=6, pulse_spec=PulseSpec(duration_h=1.0, width_h=(0.2, 0.5)),
            fit_options=FitOptions(max_iter=20),
        )
        assert max(report.errors) < 1e-6

    def test_levels_without_a_fit_are_not_evidence(self, rho0, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise PopdiffError("fit failed")
        monkeypatch.setattr(experiments, "fit", failing_fit)
        spec = GridSpec(n=2, m1=1, m2=1, tau=1 / 6)
        report = consistency_trend(
            rho0, spec, nu_levels=[2, 3, 4], seeds=5, noise_sigma=0.0,
            steps0=6, pulse_spec=PulseSpec(duration_h=1.0, width_h=(0.2, 0.5)),
        )
        assert report.errors == [math.inf] * 3
        assert report.monotone is False
        payload = strict_json(report.to_json())
        assert payload["errors"] == [None, None, None]
        assert payload["monotone"] is False

    def test_level_and_seed_validation(self, rho0, spec_small):
        with pytest.raises(ValueError):
            consistency_trend(rho0, spec_small, [2, 4], 5, 0.01)
        with pytest.raises(ValueError):
            consistency_trend(rho0, spec_small, [2, 4, 8], 3, 0.01)


class TestRefinementTrend:
    def test_noiseless_distances_shrink(self):
        # Coarse grids under-identify the parameters (only a few density
        # moments reach the operators), so their fits sit further from
        # the finest-grid fit; enough episodes/samples are needed to keep
        # the mid level from drifting along flat directions.
        rho0 = RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
        finest = GridSpec(n=12, m1=6, m2=6, tau=1 / 12)
        episodes = generate_synthetic(
            rho0, finest, 4, 0.0, seed=11,
            pulse_spec=PulseSpec(duration_h=5.0),
        )
        specs = [GridSpec(4, 2, 2, 1 / 12), GridSpec(8, 4, 4, 1 / 12), finest]
        report = refinement_trend(rho0, specs, episodes,
                                  FitOptions(max_iter=200))
        assert report.axis == "N"
        assert report.errors[-1] == 0.0
        assert report.errors[0] >= report.errors[1] >= report.errors[2]
        assert report.monotone

    def test_determinism(self, rho0):
        finest = GridSpec(n=4, m1=2, m2=2, tau=1 / 6)
        episodes = generate_synthetic(rho0, finest, 2, 0.0, seed=6,
                                      pulse_spec=PulseSpec(duration_h=2.0))
        specs = [GridSpec(2, 1, 1, 1 / 6), GridSpec(3, 2, 2, 1 / 6), finest]
        a = refinement_trend(rho0, specs, episodes, FitOptions(max_iter=25))
        b = refinement_trend(rho0, specs, episodes, FitOptions(max_iter=25))
        assert a.errors == b.errors

    def test_non_finite_cost_writes_null(self, rho0, monkeypatch):
        def vetoed_fit(episodes, spec, init, options=None):
            return SimpleNamespace(rho_hat=init, status="degenerate-density",
                                   cost=math.inf)
        monkeypatch.setattr(experiments, "fit", vetoed_fit)
        specs = [GridSpec(2, 1, 1, 1 / 6), GridSpec(3, 2, 2, 1 / 6),
                 GridSpec(4, 2, 2, 1 / 6)]
        report = refinement_trend(rho0, specs, [])
        payload = strict_json(report.to_json())
        assert [cell["cost"] for cell in payload["cells"]] == [None, None, None]
        assert payload["errors"] == [0.0, 0.0, 0.0]

    def test_requires_nested_grids(self, rho0, spec_small):
        with pytest.raises(ValueError):
            refinement_trend(rho0, [spec_small, spec_small, spec_small], [])
