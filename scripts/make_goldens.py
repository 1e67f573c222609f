#!/usr/bin/env python3
"""Regenerate the committed CLI golden files under tests/goldens/.

The goldens pin the output layout exactly and each float value to within
1e-8 * |golden| + 1e-12 (see ``golden_mismatch`` in tests/conftest.py).
Rounding drift between BLAS builds or kernels stays inside that bound, so
it is no reason to regenerate.  Run this from the repository root only
for an intentional change of output, review the diff before committing,
and record in CHANGES.md the numpy, scipy and OpenBLAS versions and the
OpenBLAS kernel (core type) used.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from popdiff import dataio
from popdiff.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "goldens"

CONFIG = """\
# golden-run configuration: small grid, deterministic everything
n = 6
m1 = 3
m2 = 3
tau = 0.08333333333333333
max_iter = 12
seed = 3
synth_episodes = 1
noise_sigma = 0.01
pulse_duration_h = 5.0
band_nsamples = 300
band_seed = 4
band_level = 0.75
"""

RHO = {
    "a1": 0.2, "b1": 1.4, "a2": 0.3, "b2": 2.0,
    "mu1": 0.7, "mu2": 1.1, "l11": 0.18, "l21": 0.05, "l22": 0.25,
}


def run(argv):
    code = main(argv)
    if code != 0:
        raise SystemExit(f"golden command failed ({code}): {argv}")


def main_():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    config = GOLDEN_DIR / "config.txt"
    config.write_text(CONFIG)

    from popdiff.density import RhoParams

    rho = RhoParams(**RHO)
    rho_path = GOLDEN_DIR / "rho.json"
    dataio.write_rho_json(rho, rho_path)

    cfg = dataio.load_config(config)
    episodes = dataio.generate_synthetic(
        rho, cfg.spec, 1, cfg.noise_sigma, cfg.seed, cfg.pulse_spec, "population"
    )
    episode_path = GOLDEN_DIR / "episode.csv"
    dataio.write_episode(episodes[0], episode_path)

    run(["simulate", str(config), str(rho_path), str(episode_path),
         "--out", str(GOLDEN_DIR / "simulate.golden.csv")])
    run(["bands", str(config), str(rho_path), str(episode_path),
         "--out", str(GOLDEN_DIR / "bands.golden.csv")])

    # Fit from a deliberately offset start so the trace has content.
    start = RhoParams(0.15, 1.6, 0.2, 2.2, 0.9, 0.9, 0.25, 0.0, 0.3)
    start_path = GOLDEN_DIR / "init_rho.json"
    dataio.write_rho_json(start, start_path)
    fit_dir = GOLDEN_DIR / "fit_out"
    run(["fit", str(config), str(episode_path),
         "--init-rho", str(start_path), "--out-dir", str(fit_dir)])
    (GOLDEN_DIR / "fit_result.golden.json").write_bytes(
        (fit_dir / "fit_result.json").read_bytes()
    )
    (GOLDEN_DIR / "cost_trace.golden.csv").write_bytes(
        (fit_dir / "cost_trace.csv").read_bytes()
    )
    for leftover in fit_dir.iterdir():
        leftover.unlink()
    fit_dir.rmdir()
    print(f"goldens written to {GOLDEN_DIR}")


if __name__ == "__main__":
    main_()
