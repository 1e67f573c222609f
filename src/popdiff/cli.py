"""Command-line entry points.

Subcommands: fit, simulate, synth, gradcheck, bands, consistency.  Usage
and input-file problems exit 2; numerical failures exit 1 with a
one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, experiments
from .dataio import RunConfig, load_config, load_episode, rho_from_json
from .errors import (
    ConditioningError,
    ConfigError,
    DegenerateDensityError,
    EpisodeParseError,
    IngestionError,
    PopdiffError,
    SimulationDivergenceError,
    SingularOperatorError,
)
from .forward import population_system, simulate
from .objective import gradient_adjoint, gradient_fd
from .optimizer import fit, initialize
from .uncertainty import credible_band

_NUMERICAL = (
    DegenerateDensityError,
    SingularOperatorError,
    ConditioningError,
    SimulationDivergenceError,
)
_USAGE = (ConfigError, EpisodeParseError, IngestionError, FileNotFoundError, ValueError)


def _load_scaled_episodes(paths, cfg: RunConfig):
    """Load episodes and apply the configured channel scaling.

    In "paper" scaling both channels are divided by reference levels so
    the fitted signals are O(1); references default to the dataset
    maximum of each channel.
    """
    raw = [load_episode(p, cfg.tau) for p in paths]
    if cfg.scaling == "none":
        return raw
    brac_ref = cfg.brac_ref or max((ep.u.max() for ep in raw), default=0.0) or 1.0
    tac_ref = cfg.tac_ref or max((ep.y_obs.max() for ep in raw), default=0.0) or 1.0
    return [load_episode(p, cfg.tau, brac_ref, tac_ref) for p in paths]


def _cmd_fit(args) -> int:
    cfg = load_config(args.config)
    episodes = _load_scaled_episodes(args.episodes, cfg)
    if cfg.init_mode == "explicit":
        if not args.init_rho:
            print("error: init_mode = explicit requires --init-rho", file=sys.stderr)
            return 2
        init = rho_from_json(args.init_rho)
    elif args.init_rho:
        init = rho_from_json(args.init_rho)
    else:
        init = initialize(episodes, cfg.spec, default_box=cfg.default_box,
                          options=cfg.fit_options)
        init.box.require_within(cfg.q1_max, cfg.q2_max)
    result = fit(episodes, cfg.spec, init, cfg.fit_options)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.atomic_write_text(
        out_dir / "fit_result.json", dataio.fit_result_json(result, cfg, cfg.seed)
    )
    dataio.atomic_write_text(out_dir / "cost_trace.csv", dataio.trace_csv(result))
    print(f"status={result.status} cost={result.cost:.6e} "
          f"iterations={len(result.cost_trace) - 1}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    rho = rho_from_json(args.rho)
    episode = _load_scaled_episodes([args.episode], cfg)[0]
    sys_ = population_system(rho, cfg.spec, cfg.cell_quad_order, cfg.norm_quad_order)
    predicted = simulate(sys_, episode.u)
    dataio.atomic_write_text(args.out, dataio.sim_csv(cfg.tau, predicted, episode.y_obs))
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    cfg = load_config(args.config)
    rho = rho_from_json(args.rho)
    episodes = dataio.generate_synthetic(
        rho, cfg.spec, cfg.synth_episodes, cfg.noise_sigma, cfg.seed,
        cfg.pulse_spec, cfg.synth_mode,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ep in episodes:
        dataio.write_episode(ep, out_dir / f"{ep.id}.csv")
    print(f"wrote {len(episodes)} episodes to {out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    rho = rho_from_json(args.rho)
    episodes = _load_scaled_episodes(args.episodes, cfg)
    adj = gradient_adjoint(rho, cfg.spec, episodes,
                           cfg.cell_quad_order, cfg.norm_quad_order)
    fd = gradient_fd(rho, cfg.spec, episodes, cfg.fd_step,
                     cfg.cell_quad_order, cfg.norm_quad_order)
    scale = float(np.abs(fd.grad).max())
    denom = np.maximum(np.maximum(np.abs(fd.grad), np.abs(adj.grad)), 1e-12 * max(scale, 1.0))
    rel = np.abs(adj.grad - fd.grad) / denom
    tolerance = 1e-4
    report = {
        "cost": adj.cost,
        "adjoint": adj.grad.tolist(),
        "finite_difference": fd.grad.tolist(),
        "rel_error": rel.tolist(),
        "max_rel_error": float(rel.max()),
        "tolerance": tolerance,
        "pass": bool(rel.max() <= tolerance),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def _cmd_bands(args) -> int:
    cfg = load_config(args.config)
    rho = rho_from_json(args.rho)
    episode = _load_scaled_episodes([args.episode], cfg)[0]
    band = credible_band(
        rho, cfg.spec, episode.u, cfg.band_level, cfg.band_nsamples,
        cfg.band_seed, cfg.cell_quad_order, cfg.norm_quad_order,
    )
    dataio.atomic_write_text(args.out, dataio.band_csv(cfg.tau, band))
    print(f"wrote {args.out}")
    return 0


def _cmd_consistency(args) -> int:
    cfg = load_config(args.config)
    rho0 = rho_from_json(args.rho)
    horizon = cfg.trend_steps * cfg.tau
    pulses = dataio.PulseSpec(
        duration_h=horizon,
        count=(cfg.pulse_count_min, cfg.pulse_count_max),
        height=(cfg.pulse_height_min, cfg.pulse_height_max),
        width_h=(min(cfg.pulse_width_min_h, 0.5 * horizon),
                 min(cfg.pulse_width_max_h, 0.8 * horizon)),
    )
    report = experiments.consistency_trend(
        rho0, cfg.spec, list(cfg.nu_levels), cfg.trend_seeds, cfg.noise_sigma,
        steps0=cfg.trend_steps, pulse_spec=pulses, fit_options=cfg.fit_options,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.atomic_write_text(out_dir / "consistency_trend.csv", report.to_csv())
    dataio.atomic_write_text(out_dir / "consistency_trend.json", report.to_json())
    print(f"levels={report.levels} medians={report.errors} monotone={report.monotone}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popdiff",
        description="Fit the distribution of diffusion/gain parameters in a "
                    "boundary-input boundary-output diffusion model to "
                    "episode data, simulate the population response, and "
                    "compute credible bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate the parameter distribution")
    p.add_argument("config")
    p.add_argument("episodes", nargs="+")
    p.add_argument("--init-rho", help="JSON file with the starting parameters")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("simulate", help="predicted vs observed output")
    p.add_argument("config")
    p.add_argument("rho")
    p.add_argument("episode")
    p.add_argument("--out", default="simulate.csv")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("synth", help="generate synthetic episodes")
    p.add_argument("config")
    p.add_argument("rho")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("gradcheck", help="adjoint vs finite-difference gradient")
    p.add_argument("config")
    p.add_argument("rho")
    p.add_argument("episodes", nargs="+")
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("bands", help="credible band for one episode input")
    p.add_argument("config")
    p.add_argument("rho")
    p.add_argument("episode")
    p.add_argument("--out", default="bands.csv")
    p.set_defaults(handler=_cmd_bands)

    p = sub.add_parser("consistency", help="estimator error trend vs data volume")
    p.add_argument("config")
    p.add_argument("rho")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_consistency)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _NUMERICAL as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except _USAGE as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except PopdiffError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
