"""Desk-scale trend experiments.

These runs collect falsifiable numerical evidence for two asymptotic
claims, without proving anything: estimator error should shrink as the
number of episodes and samples per episode grow (sampling interval
halved jointly so the horizon stays fixed), and fitted parameters should
stabilize as the approximation grid is refined.  Gates are statistical
(medians over seeds), and every cell carries enough provenance to be
re-run in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import TREND_SCHEMA, PulseSpec, generate_synthetic
from .density import RhoParams
from .errors import PopdiffError
from .forward import Episode
from .grid import GridSpec
from .optimizer import FitOptions, fit

DISCLAIMER = (
    "numerical trend evidence only; nothing here is a proof of the "
    "asymptotic statements it probes"
)


@dataclass
class TrendReport:
    axis: str                     # "nu" or "N"
    levels: list[int]
    errors: list[float]           # median over seeds per level
    monotone: bool
    cells: list[dict]             # per-cell provenance and results

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly increasing: {self.levels}")
        if len(self.errors) != len(self.levels):
            raise ValueError("one error per level required")

    def to_json(self) -> str:
        payload = {
            "axis": self.axis,
            "levels": self.levels,
            "errors": self.errors,
            "monotone": self.monotone,
            "cells": self.cells,
            "note": DISCLAIMER,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        rows = [TREND_SCHEMA, f"# {DISCLAIMER}", "level,median_error"]
        for level, err in zip(self.levels, self.errors):
            rows.append(f"{level},{err!r}")
        return "\n".join(rows) + "\n"


def _mu_error(rho_hat: RhoParams, rho0: RhoParams) -> float:
    return float(np.hypot(rho_hat.mu1 - rho0.mu1, rho_hat.mu2 - rho0.mu2))


def consistency_trend(
    rho0: RhoParams,
    spec: GridSpec,
    nu_levels: list[int],
    seeds: int,
    noise_sigma: float,
    steps0: int = 24,
    pulse_spec: PulseSpec | None = None,
    fit_options: FitOptions | None = None,
) -> TrendReport:
    """Estimator error in the mean against growing data volume.

    Level k uses nu_levels[k] episodes, sampling interval tau/2^k, and
    steps0*2^k samples per episode, so every level covers the same
    horizon.  Every fit starts at the truth rho0.  Errors are medians over
    seeds of |mu_hat - mu0|; failed fits are recorded and excluded from
    the median.
    """
    if len(nu_levels) < 3:
        raise ValueError("need at least 3 levels for a trend")
    if seeds < 5:
        raise ValueError("need at least 5 seeds for a stable median")
    nu_levels = list(nu_levels)
    horizon = steps0 * spec.tau
    pulses = pulse_spec or PulseSpec(duration_h=horizon)
    if abs(pulses.duration_h - horizon) > 1e-9:
        raise ValueError("pulse duration must match the fixed horizon")

    cells = []
    medians = []
    for k, nu in enumerate(nu_levels):
        tau_k = spec.tau / 2**k
        spec_k = GridSpec(n=spec.n, m1=spec.m1, m2=spec.m2, tau=tau_k)
        level_errors = []
        for s in range(seeds):
            cell = {
                "level": nu, "seed": s, "tau": tau_k,
                "steps": steps0 * 2**k, "noise_sigma": noise_sigma, "init": "truth",
            }
            try:
                episodes = generate_synthetic(
                    rho0, spec_k, nu, noise_sigma, seed=1000 * k + s,
                    pulse_spec=pulses, mode="population",
                )
                result = fit(episodes, spec_k, rho0, fit_options)
                err = _mu_error(result.rho_hat, rho0)
                cell.update(status=result.status, error=err)
                level_errors.append(err)
            except PopdiffError as exc:
                cell.update(status="failed", error=None, message=str(exc))
            cells.append(cell)
        medians.append(float(np.median(level_errors)) if level_errors else np.inf)

    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    return TrendReport(axis="nu", levels=nu_levels, errors=medians,
                       monotone=monotone, cells=cells)


def refinement_trend(
    rho0: RhoParams,
    specs: list[GridSpec],
    episodes: list[Episode],
    fit_options: FitOptions | None = None,
) -> TrendReport:
    """Distance of fitted parameters to the finest-grid fit.

    All grids see the same episodes and every fit starts at rho0; the
    error at each level is the Euclidean distance of the full parameter
    vector from the fit at the finest grid (zero there by construction).
    """
    if len(specs) < 3:
        raise ValueError("need at least 3 nested grids")
    dims = [s.dim for s in specs]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("grids must be strictly refining")
    fits = []
    cells = []
    for spec in specs:
        result = fit(episodes, spec, rho0, fit_options)
        fits.append(result.rho_hat)
        cells.append({
            "level": spec.dim, "n": spec.n, "m1": spec.m1, "m2": spec.m2,
            "tau": spec.tau, "status": result.status,
            "cost": result.cost, "rho_hat": result.rho_hat.as_array().tolist(),
        })
    finest = fits[-1].as_array()
    errors = [float(np.linalg.norm(f.as_array() - finest)) for f in fits]
    for cell, err in zip(cells, errors):
        cell["error"] = err
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    return TrendReport(axis="N", levels=dims, errors=errors,
                       monotone=monotone, cells=cells)
