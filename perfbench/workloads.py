"""Workload definitions, the timed loop and the correctness checks.

A run repeats rounds while the next one is expected to end in time.
Every round of every workload runs the three steps a user runs
(``initialize``, ``fit`` from a fixed offset start, ``credible_band``),
one after another in a closed loop with one caller; the workloads differ
in problem sizes, so each one puts its weight on a different layer.
README.md gives the reasons for each choice.
"""

from __future__ import annotations

import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

import calibration
import popdiff
from popdiff.dataio import PulseSpec

RHO = popdiff.RhoParams(0.2, 1.4, 0.3, 2.0, 0.7, 1.1, 0.18, 0.05, 0.25)
START = popdiff.RhoParams(0.15, 1.6, 0.25, 2.1, 0.9, 0.9, 0.22, 0.0, 0.27)
TAU = 1 / 12
FIT_OPTIONS = popdiff.FitOptions(max_iter=200)

MU_TOL = 0.10          # acceptance criterion 05
COST_RATIO_TOL = 1.01  # cost at rho_hat over cost at RHO
COVERAGE_MIN = 0.95    # share of mean_output points inside the band
GRAD_TOL = 1e-5        # acceptance criterion 01
# Central differences at step h err by O(h^2) truncation plus O(noise/h)
# rounding; h = 1e-5 is the usual double-precision optimum (cube root of
# machine epsilon).  At gradient_fd's default 1e-6 the rounding part alone
# reaches 1.3e-5 on the n=16 data, on a component 1e-3 the size of the
# largest, while at 1e-5 every workload agrees to 5e-7.
FD_STEP = 1e-5


@dataclass(frozen=True)
class FitData:
    """Synthetic population episodes, pinned to one data seed."""

    n: int
    m: int
    episodes: int
    duration_h: float
    noise: float
    seed: int

    @property
    def spec(self):
        return popdiff.GridSpec(self.n, self.m, self.m, TAU)


@dataclass(frozen=True)
class Workload:
    name: str
    fit: FitData
    band_n: int
    band_m: int
    band_duration_h: float
    band_at_truth: bool      # band at RHO, else at the round's rho_hat
    inits_per_round: int
    bands_per_round: int
    nsamples: int = 1000
    level: float = 0.75

    @property
    def band_spec(self):
        return popdiff.GridSpec(self.band_n, self.band_m, self.band_m, TAU)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("fit-n8m4", FitData(8, 4, 10, 10.0, 0.01, 44),
                 band_n=8, band_m=4, band_duration_h=10.0,
                 band_at_truth=False, inits_per_round=1, bands_per_round=2),
        Workload("fit-n16m8", FitData(16, 8, 4, 5.0, 0.01, 11),
                 band_n=16, band_m=8, band_duration_h=5.0,
                 band_at_truth=False, inits_per_round=4, bands_per_round=2),
        Workload("bands-n8", FitData(4, 2, 4, 5.0, 0.01, 3),
                 band_n=8, band_m=4, band_duration_h=10.0,
                 band_at_truth=True, inits_per_round=3, bands_per_round=2),
    ]
}


def tiny(w: Workload) -> Workload:
    """The same code path at smoke-test size."""
    return replace(w, fit=FitData(4, 2, 4, 5.0, 0.01, 5), band_n=4, band_m=2,
                   band_duration_h=5.0, inits_per_round=1, nsamples=100)


# ------------------------------------------------------------------ inputs

@dataclass
class Inputs:
    episodes: list
    u: np.ndarray
    cost_at_truth: float


def fit_episodes(w: Workload) -> list:
    """The fit data, from the workload's pinned data seed."""
    f = w.fit
    return popdiff.dataio.generate_synthetic(
        RHO, f.spec, f.episodes, f.noise, f.seed, PulseSpec(duration_h=f.duration_h))


def band_input(w: Workload, seed: int) -> np.ndarray:
    """The band's input sequence, from the run's seed."""
    return popdiff.dataio.generate_synthetic(
        RHO, w.band_spec, 1, 0.0, seed, PulseSpec(duration_h=w.band_duration_h))[0].u


def make_inputs(w: Workload, seed: int) -> Inputs:
    episodes = fit_episodes(w)
    return Inputs(episodes, band_input(w, seed), popdiff.cost(RHO, w.fit.spec, episodes))


def warm_up(w: Workload, inputs: Inputs, seed: int) -> None:
    """One untimed call down each path: pays lazy quadrature and scipy set-up."""
    popdiff.gradient_adjoint(START, w.fit.spec, inputs.episodes)
    popdiff.credible_band(RHO, w.band_spec, inputs.u, w.level, 100, seed)


def gradient_check(w: Workload, inputs: Inputs) -> float:
    """Worst relative error of the adjoint gradient against central
    differences at RHO, as acceptance criterion 01 measures it."""
    adj = popdiff.gradient_adjoint(RHO, w.fit.spec, inputs.episodes).grad
    fd = popdiff.gradient_fd(RHO, w.fit.spec, inputs.episodes, step=FD_STEP).grad
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(adj)), 1e-8 * np.abs(fd).max())
    return float((np.abs(adj - fd) / denom).max())


# ---------------------------------------------------------------- the loop

@dataclass
class Op:
    """One timed call and the outcome of its checks."""

    kind: str          # "init", "fit" or "band"
    seconds: float     # wall time, less the time of the sampling handler
    failure: str | None
    detail: dict
    start: float
    end: float
    sampler: calibration.Sampler = field(repr=False)

    @property
    def kernel_s(self) -> float:
        if self.kind == "band":  # calibration.py says why
            return self.sampler.mean_s()
        return self.sampler.kernel_s(self.start, self.end)

    @property
    def scaled_seconds(self) -> float:
        return calibration.scaled(self.seconds, self.kernel_s)


def mu_rel_err(rho) -> float:
    return max(abs(rho.mu1 - RHO.mu1) / RHO.mu1, abs(rho.mu2 - RHO.mu2) / RHO.mu2)


def digest(*arrays) -> str:
    """Hash of the arrays' bytes: equal digests mean bit-identical outputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _fit_result(result) -> dict:
    return {
        "rho_hat": result.rho_hat.as_array().tolist(),
        "cost_trace": [list(row) for row in result.cost_trace],
        "status": result.status,
        "iterations": len(result.cost_trace) - 1,
        "cost_evals": result.n_cost_evals,
        "grad_evals": result.n_grad_evals,
    }


class Runner:
    """Runs rounds of one workload and checks every output.

    ``on_op`` is called with the kind of each timed call just before it
    starts; the traced run uses it to give every call its operation id,
    and samples the machine speed only between calls, so that the sampling
    handler adds nothing to the spans.  Every output must reproduce, bit
    for bit, the same call's output in the first round (``reference``).
    """

    def __init__(self, w: Workload, inputs: Inputs, seed: int,
                 sampler: calibration.Sampler, on_op=None):
        self.w = w
        self.inputs = inputs
        self.seed = seed
        self.sampler = sampler
        self.sample_calls = on_op is None
        self.on_op = on_op or (lambda kind: None)
        self.ops: list[Op] = []
        self.reference: dict | None = None
        self._outputs: dict = {}

    def _check_repeat(self, key, value) -> str | None:
        reference = (self.reference or self._outputs).get(key, value)
        return None if reference == value else f"{key} differs from the first call"

    def _call(self, kind, fn):
        """Time one call; returns its result (None if it raised) and its Op."""
        self.sampler.bracket()
        self.on_op(kind)
        handler_s = self.sampler.handler_s
        # credible_band's main thread waits on its worker threads, where the
        # handler would run late and compete with them for the GIL.
        with self.sampler.during(self.sample_calls and kind != "band"):
            start = time.perf_counter()
            try:
                result, failure = fn(), None
            except Exception as exc:  # a raising operation is a counted failure
                result, failure = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
        self.on_op(None)
        seconds = end - start - (self.sampler.handler_s - handler_s)
        return result, Op(kind, seconds, failure, {}, start, end, self.sampler)

    def run_round(self) -> None:
        w, inputs, spec = self.w, self.inputs, self.w.fit.spec
        outputs = self._outputs = {}

        for _ in range(w.inits_per_round):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                init, op = self._call(
                    "init", lambda: popdiff.initialize(inputs.episodes, spec))
            if op.failure is None and any("falling back" in str(c.message) for c in caught):
                op.failure = "initialize fell back to the default box"
            if op.failure is None:
                value = digest(init.as_array())
                outputs.setdefault("init", value)
                op.failure = self._check_repeat("init", value)
            self.ops.append(op)

        result, op = self._call(
            "fit", lambda: popdiff.fit(inputs.episodes, spec, START, FIT_OPTIONS))
        rho_hat = RHO
        if op.failure is None:
            op.detail = _fit_result(result)
            rho_hat = result.rho_hat
            try:
                op.failure = self._check_fit(op.detail, rho_hat)
            except popdiff.PopdiffError as exc:
                op.failure = f"checking the fit raised {type(exc).__name__}: {exc}"
            outputs["fit"] = digest(op.detail["rho_hat"], op.detail["cost_trace"])
        if op.failure is None:
            op.failure = self._check_repeat("fit", outputs["fit"])
        self.ops.append(op)

        at = RHO if w.band_at_truth or "fit" not in outputs else rho_hat
        for _ in range(w.bands_per_round):
            band, op = self._call("band", lambda: popdiff.credible_band(
                at, w.band_spec, inputs.u, w.level, w.nsamples, self.seed))
            if op.failure is None:
                op.failure = self._check_band(band)
            if op.failure is None:
                value = digest(band.lower, band.upper, band.mean_output)
                outputs.setdefault("band", value)
                op.failure = self._check_repeat("band", value)
            self.ops.append(op)

        self.sampler.bracket()  # samples just after the round's last call
        if self.reference is None:
            self.reference = outputs

    def _check_fit(self, detail, rho_hat) -> str | None:
        costs = [row[1] for row in detail["cost_trace"]]
        if not (np.all(np.isfinite(detail["rho_hat"])) and costs
                and np.all(np.isfinite(costs))):
            return "non-finite fit result"
        err = mu_rel_err(rho_hat)
        ratio = popdiff.cost(rho_hat, self.w.fit.spec, self.inputs.episodes) / self.inputs.cost_at_truth
        detail["mu_rel_err"] = err
        detail["cost_ratio"] = ratio
        if not math.isfinite(ratio):
            return "non-finite cost at rho_hat"
        if err > MU_TOL:
            return f"mu relative error {err:.3g} above {MU_TOL}"
        if ratio > COST_RATIO_TOL:
            return f"cost ratio {ratio:.6g} above {COST_RATIO_TOL}"
        return None

    @staticmethod
    def _check_band(band) -> str | None:
        if np.any(band.lower > band.upper):
            return "band lower above upper"
        inside = (band.mean_output >= band.lower) & (band.mean_output <= band.upper)
        if inside.mean() < COVERAGE_MIN:
            return f"only {inside.mean():.1%} of mean_output inside the band"
        return None


def repeat_within(seconds: float, round_fn) -> int:
    """Calls ``round_fn`` at least once, and again while the next call,
    if it lasts as long as the last one, is expected to end less than half
    a call past ``seconds`` from the start.  Returns the number of calls."""
    start = time.perf_counter()
    rounds = 0
    while True:
        begin = time.perf_counter()
        round_fn()
        rounds += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - begin) > seconds:
            return rounds
