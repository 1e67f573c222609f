"""Metric names, units and their computation from one run's records.

README.md says which end-to-end metric each per-layer metric should
move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "init_s": "s",
    "bands_s": "s",
    "fit_cost_ratio": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Spans whose call count and self time are reported as they are.
_TIMED_SPANS = [
    "density.sample_array",
    "density.normalization",
    "assembly.assemble",
    "assembly.assemble_grad",
    "sampled.build_sensitivities",
    "sampled.build_sampled",
    "forward.simulate",
    "objective.cost",
    "objective.gradient_adjoint",
    "objective.adjoint",
    "optimizer.fit_deterministic",
]

PER_LAYER = {
    **{f"{name}.{part}": unit for name in _TIMED_SPANS
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "assembly.vetoes": "count",
    "sampled.expm_computed": "count",
    "forward.simulate.steps": "count",
    "forward.simulate_deterministic.calls": "count",
    "forward.simulate_deterministic.busy_s": "s",
    "objective.cost.failed": "count",
    "objective.adjoint.steps": "count",
    "optimizer.iterations": "count",
    "optimizer.cost_evals": "count",
    "optimizer.grad_evals": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.self_s": "s",
    "optimizer.mu_rel_err": "ratio",
    "optimizer.initialize.self_s": "s",
    "parallel.workers": "count",
    "parallel.thread_map.wall_s": "s",
    "parallel.efficiency": "ratio",
    "uncertainty.credible_band.self_s": "s",
    "dataio.generate_synthetic.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def seconds_of(ops, kind, scaled=True) -> list[float]:
    """Times of the calls of one kind, scaled to the reference speed
    (calibration.py) unless ``scaled`` is false."""
    return [op.scaled_seconds if scaled else op.seconds for op in ops if op.kind == kind]


def timing_summary(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile (of 50, 90, 99,
    99.9) that has at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "count": len(samples)}
    for pct in (99.9, 99, 90, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            ranked = sorted(samples)
            out[f"p{pct:g}"] = ranked[min(len(ranked) - 1, int(len(ranked) * pct / 100))]
            break
    return out


# Added to the failed share so that a healthy run does not read 0: a zero
# median cannot carry a relative bound.  One failure in a run of up to a
# few hundred operations still raises the metric several-fold.
FAILED_FLOOR = 1e-3


def failed_frac(failed: int, attempted: int) -> float:
    """Failed share of attempted operations, plus ``FAILED_FLOOR``."""
    return failed / attempted + FAILED_FLOOR


def end_to_end(ops, setup_samples, peak_rss_mb, failed, attempted) -> dict:
    fits = [op for op in ops if op.kind == "fit" and op.failure is None]
    ratios = [op.detail["cost_ratio"] for op in fits]
    values = {
        "setup_s": statistics.median(setup_samples),
        "fit_s": statistics.median(seconds_of(ops, "fit")),
        "init_s": statistics.median(seconds_of(ops, "init")),
        "bands_s": statistics.median(seconds_of(ops, "band")),
        # A failed fit has no trustworthy cost; it already counts in failed_frac.
        "fit_cost_ratio": statistics.median(ratios) if ratios else float("nan"),
        "failed_frac": failed_frac(failed, attempted),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(spans, self_s, rounds, ops, wall_s, workers, overhead) -> dict:
    """Per-round averages over the traced rounds.

    ``self_s`` maps span id to wall-clock self time (tracing.self_times).
    """
    calls = defaultdict(int)
    work = defaultdict(int)
    own = defaultdict(float)
    busy = defaultdict(float)
    errors = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        work[s.name] += s.work
        own[s.name] += self_s.get(s.id, 0.0)
        busy[s.name] += s.duration
        if s.error:
            errors[(s.name, s.error)] += 1

    fits = [op.detail for op in ops if op.kind == "fit" and op.detail]
    iterations = sum(d["iterations"] for d in fits)
    cost_evals = sum(d["cost_evals"] for d in fits)
    fanned = busy["parallel.thread_map"] * workers
    values = {
        **{f"{n}.calls": calls[n] for n in _TIMED_SPANS},
        **{f"{n}.self_s": own[n] for n in _TIMED_SPANS},
        "assembly.vetoes": sum(v for (n, e), v in errors.items()
                               if n.startswith("assembly.") and e == "DegenerateDensityError"),
        "sampled.expm_computed": work["sampled.build_sensitivities"],
        "forward.simulate.steps": work["forward.simulate"],
        "forward.simulate_deterministic.calls": calls["forward.simulate_deterministic"],
        "forward.simulate_deterministic.busy_s": busy["forward.simulate_deterministic"],
        "objective.cost.failed": sum(v for (n, _), v in errors.items() if n == "objective.cost"),
        "objective.adjoint.steps": work["objective.adjoint"],
        "optimizer.iterations": iterations,
        "optimizer.cost_evals": cost_evals,
        "optimizer.grad_evals": sum(d["grad_evals"] for d in fits),
        "optimizer.self_s": own["optimizer.fit"],
        "optimizer.mu_rel_err": sum(d.get("mu_rel_err", 0.0) for d in fits),
        "optimizer.initialize.self_s": own["optimizer.initialize"],
        "parallel.thread_map.wall_s": busy["parallel.thread_map"],
        "uncertainty.credible_band.self_s": own["uncertainty.credible_band"],
        "dataio.generate_synthetic.self_s": own["dataio.generate_synthetic"],
        "trace.wall_s": wall_s,
    }
    out = {k: v / rounds for k, v in values.items()}
    # Ratios are not averaged per round.
    out["optimizer.accept_ratio"] = iterations / cost_evals if cost_evals else 0.0
    out["parallel.workers"] = workers
    by_id = {s.id: s for s in spans}

    def under_fanout(span):
        parent = span.parent
        while parent in by_id:
            if by_id[parent].name == "parallel.thread_map":
                return True
            parent = by_id[parent].parent
        return False

    workers_busy = sum(s.duration for s in spans
                       if s.name == "forward.simulate_deterministic" and under_fanout(s))
    out["parallel.efficiency"] = workers_busy / fanned if fanned else 0.0
    out["trace.overhead"] = overhead
    return {k: {"value": out[k], "unit": PER_LAYER[k]} for k in PER_LAYER}

