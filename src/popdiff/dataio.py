"""Episode ingestion, synthetic data generation, configuration, and
result serialization.

File formats (all versioned by a leading comment line, rejected when the
version is unknown):

* episode CSV:  ``# popdiff-episode v1`` then ``t_hours,channel,value``
  rows with channel ``brac`` or ``tac``;
* band CSV:     ``# popdiff-band v1`` then ``t_hours,lower,mean,upper``;
* simulate CSV: ``# popdiff-sim v1`` then ``t_hours,predicted,observed``;
* trace CSV:    ``# popdiff-trace v1`` then
  ``iteration,cost,grad_norm,step_norm`` (cost plus pull, projected gradient);
* fit result JSON with keys rho_hat / sigma / status / cost /
  least_squares / penalty / trace / config_echo / seed.

Floats are written with repr() so outputs are byte-stable and round-trip
exactly.  All writes go through a temp file followed by an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import PARAM_NAMES, RhoParams, sample_array, sigma_from_l
from .errors import ConfigError, EpisodeParseError, IngestionError
from .forward import Episode, population_system, simulate, simulate_deterministic
from .grid import GridSpec, QBox
from .optimizer import FitOptions, FitResult

EPISODE_SCHEMA = "# popdiff-episode v1"
BAND_SCHEMA = "# popdiff-band v1"
SIM_SCHEMA = "# popdiff-sim v1"
TRACE_SCHEMA = "# popdiff-trace v1"
TREND_SCHEMA = "# popdiff-trend v1"

_CHANNELS = ("brac", "tac")


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return repr(float(x))


# ------------------------------------------------------------------- episodes

def load_episode(path, tau: float) -> Episode:
    """Read a raw episode file and resample it onto the uniform tau-grid.

    Both channels are linearly interpolated onto {0, tau, ..., T} where T
    is the last time common to both channels; the input channel is read
    at interval left endpoints (zero-order hold).  Both channels must
    start at or before 0.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    path = Path(path)
    times: dict[str, list[float]] = {c: [] for c in _CHANNELS}
    values: dict[str, list[float]] = {c: [] for c in _CHANNELS}
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != EPISODE_SCHEMA:
        raise EpisodeParseError(
            f"unknown episode schema {lines[0]!r}" if lines else "empty file",
            str(path), 1,
        )
    if len(lines) < 2 or lines[1].strip() != "t_hours,channel,value":
        raise EpisodeParseError("missing column header", str(path), 2)
    for line_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise EpisodeParseError(f"expected 3 fields, got {len(parts)}",
                                    str(path), line_no)
        try:
            t = float(parts[0])
            value = float(parts[2])
        except ValueError as exc:
            raise EpisodeParseError(str(exc), str(path), line_no) from exc
        channel = parts[1]
        if channel not in _CHANNELS:
            raise EpisodeParseError(f"unknown channel {channel!r}", str(path), line_no)
        if value < 0:
            raise EpisodeParseError(f"negative value {value}", str(path), line_no)
        if times[channel] and t < times[channel][-1]:
            raise EpisodeParseError(f"time {t} goes backwards", str(path), line_no)
        times[channel].append(t)
        values[channel].append(value)

    for channel in _CHANNELS:
        if len(times[channel]) < 2:
            raise EpisodeParseError(f"channel {channel!r} needs at least 2 rows",
                                    str(path), len(lines))
        # Interpolating back to t = 0 would invent samples before the first.
        if times[channel][0] > 0:
            raise IngestionError(f"{path}: channel {channel!r} starts after "
                                 f"t = 0, at {times[channel][0]} h")
    t_end = min(times["brac"][-1], times["tac"][-1])
    steps = int(np.floor(t_end / tau + 1e-9))
    if steps < 1:
        raise IngestionError(f"{path}: common range shorter than one interval")
    grid = np.arange(steps + 1) * tau
    u = np.interp(grid[:-1], times["brac"], values["brac"])
    y = np.interp(grid, times["tac"], values["tac"])
    return Episode(id=path.stem, tau=tau, u=u, y_obs=y)


def write_episode(episode: Episode, path) -> None:
    """Write an episode in the raw file schema, on its own tau-grid.

    The input channel is extended by one repeated sample so both channels
    cover the same range and a reload at the same tau round-trips the
    grid values exactly.  Values are clamped at zero to satisfy the file
    schema (synthetic noise can dip below zero).
    """
    rows = [EPISODE_SCHEMA, "t_hours,channel,value"]
    u_ext = np.append(episode.u, episode.u[-1])
    for j, v in enumerate(u_ext):
        rows.append(f"{_fmt(j * episode.tau)},brac,{_fmt(max(v, 0.0))}")
    for j, v in enumerate(episode.y_obs):
        rows.append(f"{_fmt(j * episode.tau)},tac,{_fmt(max(v, 0.0))}")
    atomic_write_text(path, "\n".join(rows) + "\n")


# ------------------------------------------------------------------ synthetic

@dataclass
class PulseSpec:
    """Randomized box-pulse input trains for synthetic episodes."""

    duration_h: float = 10.0
    count: tuple[int, int] = (1, 3)
    height: tuple[float, float] = (0.3, 1.0)
    width_h: tuple[float, float] = (0.5, 2.0)

    def draw(self, tau: float, rng: np.random.Generator) -> np.ndarray:
        steps = int(round(self.duration_h / tau))
        u = np.zeros(steps)
        t = np.arange(steps) * tau
        n_pulses = int(rng.integers(self.count[0], self.count[1] + 1))
        for _ in range(n_pulses):
            width = rng.uniform(*self.width_h)
            height = rng.uniform(*self.height)
            onset = rng.uniform(0.0, max(self.duration_h - width, 0.25))
            u[(t >= onset) & (t < onset + width)] += height
        return u


def generate_synthetic(
    rho0: RhoParams,
    spec: GridSpec,
    n_episodes: int,
    noise_sigma: float,
    seed: int,
    pulse_spec: PulseSpec | None = None,
    mode: str = "population",
) -> list[Episode]:
    """Synthetic episodes from a known parameter vector.

    ``population`` mode adds i.i.d. Gaussian noise to the population-
    expected output (the statistical model of the estimator, exactly);
    ``episode`` mode first draws one (q1, q2) per episode and simulates
    the single-q model (the physical story).  Observation noise is left
    unclipped so residual statistics at rho0 are exact; files written
    from these episodes clamp at zero.
    """
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if mode not in ("population", "episode"):
        raise ValueError(f"unknown synthetic mode {mode!r}")
    pulses = pulse_spec or PulseSpec()
    input_rng, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    if mode == "population":
        sys = population_system(rho0, spec)
    else:
        qs = sample_array(rho0, n_episodes, seed)
    episodes = []
    for i in range(n_episodes):
        u = pulses.draw(spec.tau, input_rng)
        if mode == "population":
            y = simulate(sys, u)
        else:
            y = simulate_deterministic(qs[i], spec.n, spec.tau, u)
        y_obs = y + noise_sigma * noise_rng.standard_normal(len(u) + 1)
        episodes.append(Episode(f"synth-{i:03d}", spec.tau, u, y_obs))
    return episodes


# ---------------------------------------------------------------------- config

@dataclass
class RunConfig:
    """Flat key=value run configuration; unknown keys are rejected."""

    n: int = 8
    m1: int = 4
    m2: int = 4
    tau: float = 1 / 12
    max_iter: int = 200
    fd_step: float = 1e-6            # gradcheck's finite-difference step
    default_box: tuple = (0.1, 2.0, 0.1, 2.0)
    scaling: str = "none"            # none | paper
    brac_ref: float = 0.0            # 0 = dataset maximum
    tac_ref: float = 0.0
    band_level: float = 0.75
    band_nsamples: int = 1000
    band_seed: int = 0
    seed: int = 0
    synth_mode: str = "population"   # population | episode
    synth_episodes: int = 10
    noise_sigma: float = 0.01
    pulse_duration_h: float = 10.0
    nu_levels: tuple = (2, 8, 32)

    def __post_init__(self):
        if self.scaling not in ("none", "paper"):
            raise ConfigError(f"scaling must be none|paper, got {self.scaling!r}")
        if self.synth_mode not in ("population", "episode"):
            raise ConfigError(
                f"synth_mode must be population|episode, got {self.synth_mode!r}"
            )
        for key in ("brac_ref", "tac_ref"):
            ref = getattr(self, key)
            if not (math.isfinite(ref) and ref >= 0):
                raise ConfigError(f"{key} must be finite and >= 0 (0 = dataset maximum), "
                                  f"got {ref}")
        if len(self.default_box) != 4:
            raise ConfigError("default_box needs 4 entries (a1, b1, a2, b2)")
        try:
            QBox(*self.default_box)
        except ValueError as exc:
            raise ConfigError(f"default_box: {exc}") from exc
        levels = self.nu_levels
        if not (levels and all(isinstance(v, int) and v >= 1 for v in levels)
                and all(a < b for a, b in zip(levels, levels[1:]))):
            raise ConfigError(
                f"nu_levels must be integers >= 1 in strictly increasing order, got {levels}"
            )
        try:
            self.spec  # GridSpec checks n, m1, m2 and tau
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def spec(self) -> GridSpec:
        return GridSpec(n=self.n, m1=self.m1, m2=self.m2, tau=self.tau)

    @property
    def fit_options(self) -> FitOptions:
        return FitOptions(max_iter=self.max_iter)

    @property
    def pulse_spec(self) -> PulseSpec:
        return PulseSpec(duration_h=self.pulse_duration_h)

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["default_box"] = list(self.default_box)
        out["nu_levels"] = list(self.nu_levels)
        return out


def _coerce(name: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind is tuple:
            parts = [p for p in raw.split(",") if p.strip()]
            nums = [float(p) for p in parts]
            if not all(math.isfinite(v) for v in nums):
                raise ValueError("non-finite entry")
            return tuple(int(v) if v == int(v) else v for v in nums)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc
    raise ConfigError(f"unsupported type for {name}")


def parse_config(text: str) -> RunConfig:
    fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    kinds = {
        "int": int, "float": float, "str": str, "tuple": tuple,
        int: int, float: float, str: str, tuple: tuple,
    }
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in fields:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _coerce(key, raw, kinds[fields[key]])
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path) as handle:
        return parse_config(handle.read())


# ------------------------------------------------------------------ rho JSON

def rho_to_dict(rho: RhoParams) -> dict:
    return {name: getattr(rho, name) for name in PARAM_NAMES}


def rho_from_json(path) -> RhoParams:
    """Read a parameter vector from a bare rho JSON or a fit-result JSON."""
    with open(path) as handle:
        data = json.load(handle)
    if "rho_hat" in data:
        data = data["rho_hat"]
    try:
        return RhoParams(**{k: float(data[k]) for k in PARAM_NAMES})
    except KeyError as exc:
        raise ConfigError(f"{path}: missing parameter {exc}") from exc


def write_rho_json(rho: RhoParams, path) -> None:
    atomic_write_text(path, json.dumps(rho_to_dict(rho), indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------- results

def fit_result_json(result: FitResult, config: RunConfig, seed: int) -> str:
    payload = {
        "rho_hat": rho_to_dict(result.rho_hat),
        "sigma": sigma_from_l(result.rho_hat).tolist(),
        "status": result.status,
        # JSON has no Infinity: a vetoed start (no finite cost) writes null.
        "cost": result.cost if math.isfinite(result.cost) else None,
        "least_squares": result.least_squares if math.isfinite(result.cost) else None,
        "penalty": result.penalty,
        "trace": [list(row) for row in result.cost_trace],
        "config_echo": config.echo(),
        "seed": seed,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trace_csv(result: FitResult) -> str:
    rows = [TRACE_SCHEMA, "iteration,cost,grad_norm,step_norm"]
    for it, c, gnorm, snorm in result.cost_trace:
        rows.append(f"{it},{_fmt(c)},{_fmt(gnorm)},{_fmt(snorm)}")
    return "\n".join(rows) + "\n"


def sim_csv(tau: float, predicted: np.ndarray, observed: np.ndarray) -> str:
    rows = [SIM_SCHEMA, "t_hours,predicted,observed"]
    for j, (p, o) in enumerate(zip(predicted, observed)):
        rows.append(f"{_fmt(j * tau)},{_fmt(p)},{_fmt(o)}")
    return "\n".join(rows) + "\n"


def band_csv(tau: float, band) -> str:
    rows = [BAND_SCHEMA, "t_hours,lower,mean,upper"]
    for j in range(len(band.mean_output)):
        rows.append(
            f"{_fmt(j * tau)},{_fmt(band.lower[j])},"
            f"{_fmt(band.mean_output[j])},{_fmt(band.upper[j])}"
        )
    return "\n".join(rows) + "\n"
