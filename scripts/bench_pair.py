#!/usr/bin/env python3
"""Paired benchmark of two checkouts: a parent and a change.

For each workload and seed this runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, the parent first on even seeds and the change
first on odd ones, so that a drift of the host's speed during the runs
falls on both sides alike.  It writes ``BENCH_<workload>.json`` to the
output directory (the repository root by default) with the environment
line of each side's first run, every run's metrics, and per end-to-end
metric each side's median and quartiles and the number of pairs in
which the change read lower (ties count for neither side).  Run from
anywhere:

    python3 scripts/bench_pair.py --parent DIR --change DIR \\
        --workload fit-n8m4 --seeds 1 2 3 4 5 [--seconds 36] [--out-dir DIR]

Each run's full record stays in that checkout's ``perfbench/out/``.  A
run that exits non-zero or prints no result stops the script.

The file's ``source`` entry names what each side measured: a sha256 over
the checkout's ``src/`` and ``perfbench/`` files (``perfbench/out/`` and
``__pycache__`` left out), which equals the value for a ``git archive``
of the measured commit, and ``git rev-parse HEAD`` when the checkout is
a git work tree (else null).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_output(stdout: str) -> tuple[str, dict]:
    """(environment line, result) of one ``perfbench/run.py`` output: the
    first comment line and the JSON object on the last line."""
    lines = stdout.strip().splitlines()
    env = next((line[2:] for line in lines if line.startswith("# ")), "")
    return env, json.loads(lines[-1])


def source(checkout: Path) -> dict:
    """The ``source`` entry of one side: the sha256 of its measured files
    and, in a git work tree, the commit it has checked out."""
    digest = hashlib.sha256()
    files = sorted(f for top in ("src", "perfbench") for f in (checkout / top).rglob("*")
                   if f.is_file() and "__pycache__" not in f.parts
                   and not f.relative_to(checkout).as_posix().startswith("perfbench/out/"))
    for f in files:
        data = f.read_bytes()
        digest.update(f"{f.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    lines = git.stdout.split()
    in_tree = git.returncode == 0 and Path(lines[0]).resolve() == checkout.resolve()
    return {"sha256": digest.hexdigest(), "commit": lines[1] if in_tree else None}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_output(done.stdout)


def order(seed: int) -> tuple[str, str]:
    """The side that runs first, then the other: parent first on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def aggregate(workload: str, runs: list[dict]) -> dict:
    """The BENCH file contents from ``runs``: one entry per seed, each with
    ``seed``, ``first`` and, per side, the ``(environment, result)`` pair
    of ``parse_output``."""
    sides = {side: [run[side][1] for run in runs] for side in SIDES}
    names = list(sides["parent"][0]["metrics"])
    metrics = {}
    for name in names:
        values = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": sides["parent"][0]["metrics"][name]["unit"],
            **{side: summarize(values[side]) for side in SIDES},
            "change_lower": f"change lower in {lower} of {len(runs)} pairs",
        }
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seed S "
                   "--seconds T --trace 0",
        "environment": {side: runs[0][side][0] for side in SIDES},
        "runs": [{"seed": run["seed"], "first": run["first"],
                  **{side: {"correct": run[side][1]["correct"],
                            "attempted": run[side][1]["attempted"],
                            "failed": run[side][1]["failed"],
                            "metrics": {k: m["value"]
                                        for k, m in run[side][1]["metrics"].items()}}
                     for side in SIDES}}
                 for run in runs],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--out-dir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    sources = {side: source(checkouts[side]) for side in SIDES}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            run = {"seed": seed, "first": order(seed)[0]}
            for side in order(seed):
                run[side] = run_side(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {m['value']:.6g}"
                                  for k, m in run[side][1]["metrics"].items()),
                      flush=True)
            runs.append(run)
        out = args.out_dir / f"BENCH_{workload}.json"
        record = {**aggregate(workload, runs), "source": sources}
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
