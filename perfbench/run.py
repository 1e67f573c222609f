"""Seeded end-to-end and per-layer benchmark of popdiff.

Run from the repository root:

    python3 perfbench/run.py --workload fit-n8m4 --seed 1 --seconds 36 --trace 0

``--trace 0`` times the workload with nothing installed and prints the
end-to-end metrics; ``--trace 1`` alternates untraced rounds with rounds
that record a span around every call into a layer, and prints the
per-layer metrics of the traced rounds.  End-to-end timings are scaled to
a reference machine speed sampled during the run (calibration.py).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full records
(environment, every operation, spans) go to ``perfbench/out/``.  The
benchmark imports popdiff from ``src/`` next to this directory and from
nowhere else; without it, it exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller asks for more, set before numpy loads.
# popdiff's matrices are small (at most 32x32 here), and on a 2-CPU host
# OpenBLAS's second thread spun beside the single caller: a fit-n16m8 run
# used 1.9 CPU-seconds per second, and its timings followed the neighbours'
# load rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh processes whose set-up time is measured per run

WORKLOAD_NAMES = ("fit-n8m4", "fit-n16m8", "bands-n8")


def import_popdiff():
    """Import popdiff from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "popdiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no popdiff sources under {src}")
    sys.path.insert(0, str(src))
    import popdiff

    if Path(popdiff.__file__).resolve().parent != (src / "popdiff").resolve():
        sys.exit(f"perfbench: popdiff was imported from {popdiff.__file__}, not {src}")
    return popdiff


def environment(seed: int, data_seed: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "popdiff_threads_effective": workers,
        "POPDIFF_THREADS": os.environ.get("POPDIFF_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "fit_data_seed": data_seed,
        "git_commit": commit,
    }


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1]) - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_failures(ops, extra_checks):
    failed = sum(op.failure is not None for op in ops) + sum(not ok for ok in extra_checks.values())
    return failed, len(ops) + len(extra_checks)


def run(args) -> dict:
    """One benchmark run; returns the result record."""
    import calibration
    import metrics
    import popdiff.parallel
    import tracing
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    if args.tiny:
        w = wl.tiny(w)
    inputs = wl.make_inputs(w, args.seed)
    wl.warm_up(w, inputs, args.seed)
    setup_end = time.monotonic()
    if args.setup_probe:
        return {"setup_end": setup_end}

    grad_err = wl.gradient_check(w, inputs)
    checks = {"gradient_adjoint matches gradient_fd at RHO": grad_err <= wl.GRAD_TOL}
    workers = popdiff.parallel.worker_count(w.nsamples)
    record = {"workload": w.name, "tiny": args.tiny, "seconds": args.seconds,
              "trace": args.trace, "gradient_check_worst_rel": grad_err,
              "environment": environment(args.seed, w.fit.seed, workers)}

    sampler = calibration.Sampler()
    if not args.trace:
        runner = wl.Runner(w, inputs, args.seed, sampler)
        record["rounds"] = wl.repeat_within(args.seconds, runner.run_round)
        rss = peak_rss_mb()
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        # A set-up mixes imports, file reads and computation, and the speed
        # samples taken just around it did not track it (their scaled times
        # spread more than raw ones), so it is scaled by the run's mean.
        run_kernel_s = sampler.mean_s()
        setup_scaled = [calibration.scaled(s, run_kernel_s) for s in setup]
        ops = runner.ops
        failed, attempted = count_failures(ops, checks)
        result = metrics.end_to_end(ops, setup_scaled, rss, failed, attempted)
        record["setup_samples_s"] = {"wall": setup, "scaled": setup_scaled,
                                     "run_kernel_s": run_kernel_s}
        record["timings"] = {
            f"{kind} {how}": metrics.timing_summary(metrics.seconds_of(ops, kind, how == "scaled"))
            for kind in ("init", "fit", "band") for how in ("scaled", "wall")}
    else:
        # Untraced and traced rounds alternate, so that the overhead compares
        # calls made under the same machine conditions.
        untraced = wl.Runner(w, inputs, args.seed, sampler)
        tracer = tracing.Tracer()
        op_ids = iter(range(1, sys.maxsize))
        kinds = {0: "generate"}

        def on_op(kind):
            tracer.op = None
            if kind:
                tracer.op = next(op_ids)
                kinds[tracer.op] = kind

        traced = wl.Runner(w, inputs, args.seed, sampler, on_op)
        wall = 0.0
        first = True

        def traced_pair():
            nonlocal wall, first
            untraced.run_round()
            # Every traced round must reproduce the untraced one bit for bit.
            traced.reference = untraced.reference
            with tracing.installed(tracer):
                begin = time.perf_counter()
                if first:
                    tracer.op = 0
                    episodes = wl.fit_episodes(w)
                    u = wl.band_input(w, args.seed)
                    tracer.op = None
                    checks["traced inputs are bit-identical"] = (
                        wl.digest(*[e.y_obs for e in episodes], u)
                        == wl.digest(*[e.y_obs for e in inputs.episodes], inputs.u))
                    first = False
                traced.run_round()
                wall += time.perf_counter() - begin

        rounds = wl.repeat_within(args.seconds, traced_pair)
        self_s = tracing.self_times(tracer.spans)
        ops = untraced.ops + traced.ops
        failed, attempted = count_failures(ops, checks)
        overhead = (statistics.median(metrics.seconds_of(traced.ops, "fit"))
                    / statistics.median(metrics.seconds_of(untraced.ops, "fit")))
        result = metrics.per_layer(tracer.spans, self_s, rounds, traced.ops,
                                   wall, workers, overhead)
        record["rounds"] = rounds
        record["self_s_total_per_round"] = sum(self_s.values()) / rounds
        record["spans_file"] = write_spans(args, tracer.spans, self_s, kinds)

    record["checks"] = checks
    record["ops"] = [{"kind": op.kind, "seconds": op.seconds,
                      "scaled_seconds": op.scaled_seconds, "kernel_s": op.kernel_s,
                      "failure": op.failure,
                      **{k: v for k, v in op.detail.items()
                         if k not in ("rho_hat", "cost_trace")}} for op in ops]
    record["correct"] = failed == 0
    record["attempted"] = attempted
    record["failed"] = failed
    record["metrics"] = result
    return record


def write_spans(args, spans, self_s, kinds) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    fields = ["id", "name", "start", "end", "parent", "thread", "op", "work", "error", "self_s"]
    rows = [[s.id, s.name, s.start, s.end, s.parent, s.thread, s.op, s.work, s.error,
             self_s.get(s.id, 0.0)] for s in spans]
    path.write_text(json.dumps({"fields": fields, "op_kinds": kinds, "spans": rows}))
    return str(path.relative_to(ROOT))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test problem sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_popdiff()
    record = run(args)
    if args.setup_probe:
        print(record["setup_end"])
        return 0
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, {env['nproc']} CPUs ({env['cpu_model']}), "
          f"{env['popdiff_threads_effective']} popdiff workers, commit {env['git_commit']}")
    for kind, summary in record.get("timings", {}).items():
        print(f"# {kind}: " + ", ".join(f"{k} {v:.6g}" for k, v in summary.items()))
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for op in record["ops"]:
        if op["failure"]:
            print(f"# FAILED {op['kind']}: {op['failure']}")
    for name, ok in record["checks"].items():
        if not ok:
            print(f"# FAILED check: {name}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
