import numpy as np
import pytest

from popdiff.dataio import (
    EPISODE_SCHEMA,
    PulseSpec,
    RunConfig,
    band_csv,
    generate_synthetic,
    load_episode,
    parse_config,
    rho_from_json,
    sim_csv,
    trace_csv,
    write_episode,
    write_rho_json,
)
from popdiff.density import RhoParams
from popdiff.errors import ConfigError, EpisodeParseError, IngestionError
from popdiff.forward import Episode
from popdiff.grid import GridSpec
from popdiff.objective import cost


def write_raw(path, rows):
    lines = [EPISODE_SCHEMA, "t_hours,channel,value"] + rows
    path.write_text("\n".join(lines) + "\n")


class TestLoadEpisode:
    def test_on_grid_samples_are_identity(self, tmp_path):
        tau = 0.25
        rows = []
        for j in range(5):
            rows.append(f"{j * tau},brac,{0.1 * j}")
            rows.append(f"{j * tau},tac,{0.2 * j}")
        f = tmp_path / "ep.csv"
        write_raw(f, rows)
        ep = load_episode(f, tau)
        np.testing.assert_array_equal(ep.u, [0.1 * j for j in range(4)])
        np.testing.assert_array_equal(ep.y_obs, [0.2 * j for j in range(5)])
        assert ep.id == "ep"

    def test_constant_brac_interpolation(self, tmp_path):
        f = tmp_path / "const.csv"
        write_raw(f, ["0.0,brac,0.05", "1.0,brac,0.05",
                      "0.0,tac,0.0", "1.0,tac,0.3"])
        ep = load_episode(f, tau=0.25)
        np.testing.assert_array_equal(ep.u, [0.05, 0.05, 0.05, 0.05])

    def test_sparser_brac_interpolated_down(self, tmp_path):
        f = tmp_path / "sparse.csv"
        write_raw(f, ["0.0,brac,0.0", "1.0,brac,0.4",
                      "0.0,tac,0.0", "0.5,tac,0.1", "1.0,tac,0.2"])
        ep = load_episode(f, tau=0.25)
        np.testing.assert_allclose(ep.u, [0.0, 0.1, 0.2, 0.3])

    def test_round_trip_is_bit_exact(self, tmp_path):
        f = tmp_path / "orig.csv"
        rng = np.random.default_rng(0)
        rows = []
        tau = 1 / 12
        for j in range(13):
            rows.append(f"{j * tau!r},brac,{rng.uniform(0, 1)!r}")
            rows.append(f"{j * tau!r},tac,{rng.uniform(0, 1)!r}")
        write_raw(f, rows)
        ep = load_episode(f, tau)
        g = tmp_path / "rewritten.csv"
        write_episode(ep, g)
        ep2 = load_episode(g, tau)
        np.testing.assert_array_equal(ep.u, ep2.u)
        np.testing.assert_array_equal(ep.y_obs, ep2.y_obs)

    def test_scaling_divides_channels(self, tmp_path):
        f = tmp_path / "scaled.csv"
        write_raw(f, ["0.0,brac,0.08", "1.0,brac,0.08",
                      "0.0,tac,40.0", "1.0,tac,20.0"])
        ep = load_episode(f, tau=0.5, brac_scale=0.08, tac_scale=40.0)
        np.testing.assert_allclose(ep.u, [1.0, 1.0])
        np.testing.assert_allclose(ep.y_obs, [1.0, 0.75, 0.5])

    def test_unknown_schema_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# popdiff-episode v9\nt_hours,channel,value\n")
        with pytest.raises(EpisodeParseError):
            load_episode(f, 0.25)

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_raw(f, ["0.0,brac,0.1", "oops,brac,0.1",
                      "0.0,tac,0.1", "1.0,tac,0.1"])
        with pytest.raises(EpisodeParseError) as err:
            load_episode(f, 0.25)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("row", [
        "0.5,brac,0.1",           # goes backwards after 1.0
        "1.0,beer,0.1",           # unknown channel
        "1.0,brac,-0.2",          # negative value
        "1.0,brac",               # wrong arity
    ])
    def test_malformed_rows(self, tmp_path, row):
        f = tmp_path / "bad.csv"
        write_raw(f, ["0.0,brac,0.1", "1.0,brac,0.1", row,
                      "0.0,tac,0.1", "1.0,tac,0.1"])
        with pytest.raises(EpisodeParseError):
            load_episode(f, 0.25)

    def test_non_overlapping_channels(self, tmp_path):
        f = tmp_path / "split.csv"
        write_raw(f, ["0.0,brac,0.1", "1.0,brac,0.1",
                      "2.0,tac,0.1", "3.0,tac,0.1"])
        with pytest.raises(IngestionError):
            load_episode(f, 0.25)

    def test_needs_two_rows_per_channel(self, tmp_path):
        f = tmp_path / "short.csv"
        write_raw(f, ["0.0,brac,0.1", "1.0,brac,0.1", "0.5,tac,0.1"])
        with pytest.raises(EpisodeParseError):
            load_episode(f, 0.25)


class TestGenerateSynthetic:
    def test_population_mode_zero_noise_is_self_consistent(self, rho_smooth):
        spec = GridSpec(n=4, m1=2, m2=2, tau=1 / 12)
        episodes = generate_synthetic(rho_smooth, spec, 3, 0.0, seed=1,
                                      pulse_spec=PulseSpec(duration_h=3.0))
        assert cost(rho_smooth, spec, episodes) == 0.0

    def test_seed_reproducibility(self, rho_smooth):
        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        kwargs = dict(pulse_spec=PulseSpec(duration_h=2.0), mode="episode")
        a = generate_synthetic(rho_smooth, spec, 4, 0.01, seed=9, **kwargs)
        b = generate_synthetic(rho_smooth, spec, 4, 0.01, seed=9, **kwargs)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.u, eb.u)
            np.testing.assert_array_equal(ea.y_obs, eb.y_obs)

    def test_noise_cost_has_chi_square_mean(self, rho_smooth):
        # cost(rho0) = sum of squared noise; mean nu*(steps+1)*sigma^2.
        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        sigma = 0.01
        nu, seeds = 3, 20
        pulse = PulseSpec(duration_h=4.0)
        costs = []
        for s in range(seeds):
            eps = generate_synthetic(rho_smooth, spec, nu, sigma, seed=100 + s,
                                     pulse_spec=pulse)
            costs.append(cost(rho_smooth, spec, eps))
        steps = eps[0].steps
        expected = nu * (steps + 1) * sigma**2
        se = np.sqrt(2 * nu * (steps + 1)) * sigma**2 / np.sqrt(seeds)
        assert abs(np.mean(costs) - expected) < 3 * se

    def test_episode_mode_draws_vary(self, rho_smooth):
        spec = GridSpec(n=3, m1=2, m2=2, tau=1 / 12)
        pulse = PulseSpec(duration_h=2.0, count=(1, 1), height=(0.5, 0.5),
                          width_h=(1.0, 1.0))
        eps = generate_synthetic(rho_smooth, spec, 4, 0.0, seed=3,
                                 pulse_spec=pulse, mode="episode")
        peaks = sorted(ep.y_obs.max() for ep in eps)
        assert peaks[-1] - peaks[0] > 1e-3

    def test_mode_validation(self, rho_smooth, spec_small):
        with pytest.raises(ValueError):
            generate_synthetic(rho_smooth, spec_small, 2, 0.0, 0, mode="nope")
        with pytest.raises(ValueError):
            generate_synthetic(rho_smooth, spec_small, 2, -0.1, 0)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.spec == GridSpec(8, 4, 4, cfg.tau)

    def test_parse_overrides_comments_and_lists(self):
        text = """
        # grid
        n = 6
        m1 = 3
        m2 = 2
        tau = 0.25   # hours
        nu_levels = 2, 4, 8
        default_box = 0.2, 1.5, 0.1, 1.8
        scaling = paper
        """
        cfg = parse_config(text)
        assert (cfg.n, cfg.m1, cfg.m2, cfg.tau) == (6, 3, 2, 0.25)
        assert cfg.nu_levels == (2, 4, 8)
        assert cfg.default_box == (0.2, 1.5, 0.1, 1.8)
        assert cfg.scaling == "paper"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("grid_size = 8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 4\nn = 8")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n = four")

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_non_finite_tuple_entry_rejected(self, entry):
        with pytest.raises(ConfigError, match="default_box"):
            parse_config(f"default_box = 0.1, {entry}, 0.1, 2.0")

    def test_bad_synth_mode_names_value(self):
        with pytest.raises(ConfigError, match="'loud'"):
            parse_config("synth_mode = loud")

    def test_removed_grad_method_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'grad_method'"):
            parse_config("grad_method = adjoint")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("scaling = loud")

    def test_fit_options_plumbing(self):
        cfg = parse_config("max_iter = 17\ngtol = 1e-4")
        opts = cfg.fit_options
        assert opts.max_iter == 17 and opts.gtol == 1e-4


class TestRhoJson:
    def test_round_trip(self, tmp_path, rho_smooth):
        f = tmp_path / "rho.json"
        write_rho_json(rho_smooth, f)
        back = rho_from_json(f)
        np.testing.assert_array_equal(back.as_array(), rho_smooth.as_array())

    def test_reads_fit_result_shape(self, tmp_path, rho_smooth):
        import json

        f = tmp_path / "fit.json"
        payload = {"rho_hat": {k: getattr(rho_smooth, k) for k in
                               ("a1", "b1", "a2", "b2", "mu1", "mu2",
                                "l11", "l21", "l22")},
                   "status": "converged"}
        f.write_text(json.dumps(payload))
        back = rho_from_json(f)
        assert back.mu1 == rho_smooth.mu1

    def test_missing_key_raises(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"a1": 0.1}')
        with pytest.raises(ConfigError):
            rho_from_json(f)


class TestCsvWriters:
    def test_schema_headers(self, rho_smooth, spec_small):
        from popdiff.optimizer import FitResult

        result = FitResult(rho_smooth, [(0, 1.0, 0.5, 0.0)], "converged", 1, 1)
        assert trace_csv(result).startswith("# popdiff-trace v1\n")
        assert sim_csv(0.25, np.zeros(3), np.zeros(3)).startswith("# popdiff-sim v1\n")

    def test_band_csv_layout(self):
        class Band:
            lower = np.array([0.0, 0.1])
            upper = np.array([0.2, 0.3])
            mean_output = np.array([0.1, 0.2])

        text = band_csv(0.5, Band())
        lines = text.splitlines()
        assert lines[0] == "# popdiff-band v1"
        assert lines[1] == "t_hours,lower,mean,upper"
        assert lines[2] == "0.0,0.0,0.1,0.2"
