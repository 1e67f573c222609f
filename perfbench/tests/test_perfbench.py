"""Smoke tests of the benchmark at tiny problem sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_popdiff()

import calibration  # noqa: E402
import metrics  # noqa: E402
import popdiff  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = list(run.WORKLOAD_NAMES)


def bench(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, capsys):
    lines, result = bench(workload, 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    for name, unit in metrics.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{name} " in "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_within_wall_time(workload, capsys):
    _, result = bench(workload, 1, capsys)
    assert result["correct"], "traced outputs must equal the untraced round bit for bit"
    layer = result["metrics"]
    assert {k: v["unit"] for k, v in layer.items()} == metrics.PER_LAYER
    self_total = sum(v["value"] for k, v in layer.items()
                     if k.endswith(".self_s"))
    assert 0 < self_total <= layer["trace.wall_s"]["value"]
    assert layer["optimizer.grad_evals"]["value"] > 0
    assert layer["forward.simulate_deterministic.calls"]["value"] > 0


def test_a_failing_fit_counts_in_failed_frac(monkeypatch, capsys):
    calls = []
    real_fit = popdiff.fit

    def fit_that_raises_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise popdiff.DegenerateDensityError("deliberate failure")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(popdiff, "fit", fit_that_raises_once)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    _, result = bench("bands-n8", 0, capsys)
    assert not result["correct"]
    assert result["failed"] == 1
    expected = metrics.failed_frac(1, result["attempted"])
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(expected)
    assert expected >= 3 * metrics.failed_frac(0, result["attempted"])


def test_self_times_split_concurrent_work_and_skip_waiting_parents():
    S = tracing.Span
    spans = [
        S(0, "outer", 0.0, 10.0, None, 1, 1),
        S(1, "parallel.thread_map", 2.0, 8.0, 0, 1, 1),
        S(2, "work", 2.0, 8.0, 1, 2, 1),
        S(3, "work", 4.0, 6.0, 1, 3, 1),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(4.0)
    assert 1 not in own or own[1] == 0.0
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_sampler_samples_during_a_call_and_restores_the_alarm():
    sampler = calibration.Sampler()
    handler = signal.getsignal(signal.SIGALRM)
    with sampler.during():
        stop = time.perf_counter() + 0.3
        while time.perf_counter() < stop:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.seconds) >= 3
    assert 0 < sampler.handler_s < 0.3
    taken = len(sampler.ends)
    with sampler.during(active=False):
        time.sleep(3 * calibration.INTERVAL_S)
    assert len(sampler.ends) == taken
    end = sampler.ends[-1]
    sampler.ends.append(end + 2 * calibration.WINDOW_S + 1)
    sampler.seconds.append(1e3)  # outside the window of every earlier sample
    assert sampler.kernel_s(sampler.ends[0], end) < 1.0


def test_tracing_restores_every_binding():
    originals = (popdiff.simulate, popdiff.objective.simulate, popdiff.forward.simulate)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patched:
        assert popdiff.objective.simulate is not originals[1]
        assert {m.__name__ for m, b, _ in patched if b == "simulate"} >= {
            "popdiff", "popdiff.forward", "popdiff.objective",
            "popdiff.uncertainty", "popdiff.dataio"}
    assert (popdiff.simulate, popdiff.objective.simulate, popdiff.forward.simulate) == originals


def test_exits_without_result_when_sources_are_missing(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bands-n8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
