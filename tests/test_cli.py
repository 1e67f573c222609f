import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_mismatches

from popdiff import cli
from popdiff.cli import _load_scaled_episodes, main
from popdiff.dataio import (load_episode, parse_config, rho_to_dict, write_episode,
                            write_rho_json)
from popdiff.density import RhoParams
from popdiff.forward import Episode

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
        names = ["a1", "b1", "a2", "b2", "mu1", "mu2", "l11", "l21", "l22"]
        assert report["worst_component"] == names[int(np.argmax(report["rel_error"]))]


class TestFitResultContract:
    def test_json_keys(self, golden_paths, tmp_path):
        main(["fit", golden_paths["config"], golden_paths["episode"],
              "--init-rho", golden_paths["init_rho"], "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "fit_result.json").read_text())
        assert set(payload) == {"rho_hat", "sigma", "status", "cost", "least_squares",
                                "penalty", "trace", "config_echo", "seed"}
        assert payload["least_squares"] + payload["penalty"] == pytest.approx(
            payload["cost"], rel=1e-12)
        assert set(payload["rho_hat"]) == {"a1", "b1", "a2", "b2", "mu1", "mu2",
                                           "l11", "l21", "l22"}
        sigma = np.array(payload["sigma"])
        assert sigma.shape == (2, 2)
        assert sigma[0, 1] == sigma[1, 0]
        assert payload["config_echo"]["n"] == 6
        trace = payload["trace"]
        costs = [row[1] for row in trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_vetoed_start_writes_strict_json(self, golden_paths, tmp_path, capsys):
        # The density floor vetoes this start, so the fit has no finite cost.
        start = RhoParams(0.15, 1.6, 0.2, 2.2, 9.0, 9.0, 0.1, 0.0, 0.1)
        write_rho_json(start, tmp_path / "start.json")
        code = main(["fit", golden_paths["config"], golden_paths["episode"],
                     "--init-rho", str(tmp_path / "start.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert "iterations=0" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads((tmp_path / "fit_result.json").read_text(),
                             parse_constant=reject)
        assert payload["status"] == "degenerate-density"
        assert payload["rho_hat"] == rho_to_dict(start)
        assert payload["cost"] is None


class TestMomentInitialization:
    def test_fit_without_init_rho_starts_from_moments(self, golden_paths, tmp_path):
        # The only CLI path through optimizer.initialize: no --init-rho.
        config = tmp_path / "moment.txt"
        config.write_text(
            "n = 4\nm1 = 2\nm2 = 2\ntau = 0.08333333333333333\nmax_iter = 5\n"
            "seed = 3\nsynth_episodes = 3\npulse_duration_h = 5.0\n"
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
                                     "damping-exhausted", "degenerate-density"}

    @pytest.mark.parametrize("box", [(0.1, 12.0, 0.1, 2.0), (0.1, 2.0, 0.1, 12.0)])
    def test_moment_start_outside_the_global_box_is_usage_error(
            self, golden_paths, tmp_path, capsys, monkeypatch, box):
        far = RhoParams(*box, 0.7, 1.1, 0.18, 0.05, 0.25)
        monkeypatch.setattr(cli, "initialize", lambda *args, **kwargs: far)
        code = main(["fit", golden_paths["config"], golden_paths["episode"],
                     "--out-dir", str(tmp_path / "fit")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "q1 <= 10.0, q2 <= 10.0" in err["message"]
        assert not (tmp_path / "fit").exists()


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

    @pytest.mark.parametrize("line", ["tau = 0", "tau = -0.1", "cell_quad_order = 8",
                                      "norm_quad_order = 24", "gtol = 1e-06",
                                      "xtol = 1e-09", "gap_min = 0.001",
                                      "init_mode = moment", "default_box = 2, 0.1, 0.1, 2",
                                      "default_box = 0, 2, 0.1, 2", "brac_ref = -1",
                                      "tac_ref = -1", "tac_ref = nan",
                                      "q1_max = 10.0", "q2_max = 10.0",
                                      "pulse_count_min = 1", "pulse_count_max = 3",
                                      "pulse_height_min = 0.3", "pulse_height_max = 1.0",
                                      "pulse_width_min_h = 0.5",
                                      "pulse_width_max_h = 2.0", "trend_seeds = 5",
                                      "trend_steps = 24"])
    def test_rejected_config_is_usage_error(self, golden_paths, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        code = main(["fit", str(bad), golden_paths["episode"], "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert line.split(" =")[0] in err["message"]

    @pytest.mark.parametrize("levels", ["2.5, 3, 4", "8, 2, 32", "0, 2, 4"])
    def test_bad_nu_levels_stop_consistency_before_any_fit(self, golden_paths, tmp_path,
                                                           capsys, levels):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"nu_levels = {levels}\n")
        code = main(["consistency", str(bad), golden_paths["rho"],
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "nu_levels" in err["message"]
        assert not (tmp_path / "out").exists()


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

    def test_paper_scaling_divides_by_dataset_maxima(self, golden_paths, tmp_path):
        # Two files, so each channel's reference is the larger of two maxima.
        second = tmp_path / "second.csv"
        ep = load_episode(golden_paths["episode"], 1 / 12)
        write_episode(Episode("second", ep.tau, 0.5 * ep.u[::-1], 2.0 * ep.y_obs), second)
        paths = [golden_paths["episode"], str(second)]
        raw = [load_episode(p, 1 / 12) for p in paths]
        brac_ref = max(e.u.max() for e in raw)
        tac_ref = max(e.y_obs.max() for e in raw)
        cfg = parse_config("tau = 0.08333333333333333\nscaling = paper\n")
        scaled = _load_scaled_episodes(paths, cfg)
        for e, s in zip(raw, scaled):
            np.testing.assert_array_equal(s.u, e.u / brac_ref)
            np.testing.assert_array_equal(s.y_obs, e.y_obs / tac_ref)
        assert [s.id for s in scaled] == ["episode", "second"]


class TestQuadratureOrders:
    def test_bands_mean_equals_simulate_at_configured_norm_order(self, golden_paths,
                                                                 tmp_path):
        # Both center lines are the population output, assembled at the
        # same quadrature orders.
        config = golden_paths["config"]
        sim, bands = tmp_path / "sim.csv", tmp_path / "bands.csv"
        assert main(["simulate", config, golden_paths["rho"],
                     golden_paths["episode"], "--out", str(sim)]) == 0
        assert main(["bands", config, golden_paths["rho"],
                     golden_paths["episode"], "--out", str(bands)]) == 0
        predicted = [row.split(",")[1] for row in sim.read_text().splitlines()[2:]]
        mean = [row.split(",")[2] for row in bands.read_text().splitlines()[2:]]
        assert len(predicted) == len(mean) > 1
        assert mean == predicted
