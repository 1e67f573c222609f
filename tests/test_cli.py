import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_mismatches

from popdiff.cli import main
from popdiff.dataio import load_episode, write_rho_json
from popdiff.density import RhoParams

GOLDEN = Path(__file__).parent / "goldens"


@pytest.fixture
def golden_paths():
    return {
        "config": str(GOLDEN / "config.txt"),
        "rho": str(GOLDEN / "rho.json"),
        "episode": str(GOLDEN / "episode.csv"),
        "init_rho": str(GOLDEN / "init_rho.json"),
    }


class TestGoldens:
    """CLI output against the goldens: layout exactly, floats to the
    bound stated in ``conftest.golden_mismatch``, repeat runs bit-identical."""

    def test_simulate_matches_golden_bytes(self, golden_paths, tmp_path):
        def run(out_dir):
            return main(["simulate", golden_paths["config"], golden_paths["rho"],
                         golden_paths["episode"], "--out", str(out_dir / "simulate.csv")])

        goldens = {"simulate.csv": GOLDEN / "simulate.golden.csv"}
        assert golden_mismatches(run, goldens, tmp_path) == []

    def test_bands_matches_golden_bytes(self, golden_paths, tmp_path):
        def run(out_dir):
            return main(["bands", golden_paths["config"], golden_paths["rho"],
                         golden_paths["episode"], "--out", str(out_dir / "bands.csv")])

        goldens = {"bands.csv": GOLDEN / "bands.golden.csv"}
        assert golden_mismatches(run, goldens, tmp_path) == []

    def test_fit_matches_golden_bytes(self, golden_paths, tmp_path):
        def run(out_dir):
            return main(["fit", golden_paths["config"], golden_paths["episode"],
                         "--init-rho", golden_paths["init_rho"],
                         "--out-dir", str(out_dir)])

        goldens = {"fit_result.json": GOLDEN / "fit_result.golden.json",
                   "cost_trace.csv": GOLDEN / "cost_trace.golden.csv"}
        assert golden_mismatches(run, goldens, tmp_path) == []

    def test_gradcheck_passes_on_fixture(self, golden_paths, capsys):
        code = main(["gradcheck", golden_paths["config"], golden_paths["rho"],
                     golden_paths["episode"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["pass"] is True
        assert report["max_rel_error"] <= report["tolerance"]


class TestFitResultContract:
    def test_json_keys(self, golden_paths, tmp_path):
        main(["fit", golden_paths["config"], golden_paths["episode"],
              "--init-rho", golden_paths["init_rho"], "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "fit_result.json").read_text())
        assert set(payload) == {"rho_hat", "sigma", "status", "cost", "trace",
                                "config_echo", "seed"}
        assert set(payload["rho_hat"]) == {"a1", "b1", "a2", "b2", "mu1", "mu2",
                                           "l11", "l21", "l22"}
        sigma = np.array(payload["sigma"])
        assert sigma.shape == (2, 2)
        assert sigma[0, 1] == sigma[1, 0]
        assert payload["config_echo"]["n"] == 6
        trace = payload["trace"]
        costs = [row[1] for row in trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestMomentInitialization:
    def test_fit_without_init_rho_starts_from_moments(self, golden_paths, tmp_path):
        # The only CLI path through optimizer.initialize: init_mode = moment
        # (the default) and no --init-rho.
        config = tmp_path / "moment.txt"
        config.write_text(
            "n = 4\nm1 = 2\nm2 = 2\ntau = 0.08333333333333333\nmax_iter = 5\n"
            "seed = 3\nsynth_episodes = 3\npulse_duration_h = 5.0\n"
            "init_mode = moment\n"
        )
        assert main(["synth", str(config), golden_paths["rho"],
                     "--out-dir", str(tmp_path / "data")]) == 0
        episodes = sorted(str(p) for p in (tmp_path / "data").glob("synth-*.csv"))
        assert len(episodes) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback to the default box warns
            code = main(["fit", str(config), *episodes, "--out-dir", str(tmp_path / "fit")])
        assert code == 0
        payload = json.loads((tmp_path / "fit" / "fit_result.json").read_text())
        assert payload["status"] in {"converged", "stalled-step", "max-iterations",
                                     "line-search-failure", "degenerate-density"}
        assert payload["config_echo"]["init_mode"] == "moment"


class TestSynth:
    def test_writes_reloadable_episodes(self, golden_paths, tmp_path):
        code = main(["synth", golden_paths["config"], golden_paths["rho"],
                     "--out-dir", str(tmp_path)])
        assert code == 0
        files = sorted(tmp_path.glob("synth-*.csv"))
        assert len(files) == 1  # synth_episodes = 1 in the golden config
        ep = load_episode(files[0], tau=0.08333333333333333)
        assert ep.steps > 0
        assert np.all(ep.y_obs >= 0)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_arguments_is_usage_error(self):
        assert main(["fit"]) == 2

    def test_unknown_config_key_is_usage_error(self, golden_paths, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnication_level = 11\n")
        code = main(["simulate", str(bad), golden_paths["rho"],
                     golden_paths["episode"]])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, golden_paths):
        code = main(["simulate", golden_paths["config"], golden_paths["rho"],
                     "/nonexistent/episode.csv"])
        assert code == 2

    def test_numerical_failure_exits_one(self, golden_paths, tmp_path, capsys):
        # Support box far outside the mass of the law: degenerate density.
        rho = RhoParams(5.0, 6.0, 5.0, 6.0, 0.5, 0.5, 0.05, 0.0, 0.05)
        rho_path = tmp_path / "far.json"
        write_rho_json(rho, rho_path)
        out = tmp_path / "sim.csv"
        code = main(["simulate", golden_paths["config"], str(rho_path),
                     golden_paths["episode"], "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateDensityError"

    def test_non_finite_config_entry_is_usage_error(self, golden_paths, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("default_box = 0.1, inf, 0.1, 2.0\n")
        code = main(["fit", str(bad), golden_paths["episode"], "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "default_box" in err["message"]

    def test_explicit_init_requires_rho(self, golden_paths, tmp_path, capsys):
        code = main(["fit", golden_paths["config"], golden_paths["episode"],
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "init" in capsys.readouterr().err


class TestScaling:
    def test_paper_scaling_normalizes_channels(self, golden_paths, tmp_path):
        config = tmp_path / "scaled.txt"
        config.write_text(
            "n = 4\nm1 = 2\nm2 = 2\ntau = 0.08333333333333333\nscaling = paper\n"
            "band_nsamples = 300\n"
        )
        out = tmp_path / "sim.csv"
        code = main(["simulate", str(config), golden_paths["rho"],
                     golden_paths["episode"], "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        observed = np.array([float(r.split(",")[2]) for r in rows])
        assert observed.max() == pytest.approx(1.0)


class TestQuadratureOrders:
    def test_bands_mean_equals_simulate_at_configured_norm_order(self, golden_paths,
                                                                 tmp_path):
        # Both center lines are the population output at the configured
        # orders; a non-default norm_quad_order must reach both commands.
        config = tmp_path / "order.txt"
        config.write_text((GOLDEN / "config.txt").read_text() + "norm_quad_order = 4\n")
        sim, bands = tmp_path / "sim.csv", tmp_path / "bands.csv"
        assert main(["simulate", str(config), golden_paths["rho"],
                     golden_paths["episode"], "--out", str(sim)]) == 0
        assert main(["bands", str(config), golden_paths["rho"],
                     golden_paths["episode"], "--out", str(bands)]) == 0
        predicted = [row.split(",")[1] for row in sim.read_text().splitlines()[2:]]
        mean = [row.split(",")[2] for row in bands.read_text().splitlines()[2:]]
        assert len(predicted) == len(mean) > 1
        assert mean == predicted
