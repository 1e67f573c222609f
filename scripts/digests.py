#!/usr/bin/env python3
"""Bit-identity digests of the benchmark workloads' outputs.

For each workload of ``perfbench/workloads.py`` this prints the first 16
hex digits of ``workloads.digest`` over:

* the fit data (every episode's ``y_obs``), which the population system
  generates, so a change in its rounding shows here first;
* the fit from ``START`` (``rho_hat`` and the cost trace), with its
  status, iteration count, cost/linearization evaluation counts and the
  pull's penalty at ``rho_hat``;
* the cost at ``START`` and at ``RHO`` (total and per episode), so a
  change that must leave the forward pass alone shows that it did;
* ``gradient_adjoint`` (cost and gradient) at ``START`` and at ``RHO``;
* the normal equations at ``START``, J^T J and J^T r of the residual
  Jacobian J (``evaluate(START, ...).normal_equations(input_gram(...))``),
  the system the fit's steps solve;
* the cell moments' nine parameter derivatives at ``START``
  (``assemble(..., with_grad=True).dmoments``), the layer every
  derivative above starts from;
* the population response ``h`` at ``START`` for the longest episode
  (``forward.response`` of ``build_sampled``), the kernel every cost and
  every data set is convolved with;
* ``build_sensitivities`` at ``START`` (``dnodes`` and ``dweights`` of
  the rule it returns, and the nodes' slope rows dg/dq1 from
  ``sampled.unit_slopes`` for the longest episode), so a change in the
  sensitivity layer is named directly;
* ``unit_responses`` at ``optimizer.Q1_GRID`` for the longest fit
  episode, the single-q responses whose profile seeds every
  ``initialize`` search;
* ``initialize`` on the fit episodes;
* ``credible_band`` on the band input of seed 1, at ``RHO`` or at the
  fit's ``rho_hat`` as the workload's rounds place it;
* ``simulate_deterministic_batch`` on that input for a fixed set of
  draws from ``RHO``, so the single-q path is seen apart from the fit.

A refactoring that must not change one bit of output leaves every digest
unchanged.  Digests depend on the BLAS kernel, so compare two commits on
one machine; no test pins them.  Run from the repository root:

    python3 scripts/digests.py [--workload NAME ...] [--expect FILE]
                               [--save FILE.npz] [--against FILE.npz]

With ``--expect`` each output line is compared to the line of the same
workload and quantity in a saved run; lines the file does not hold are
not compared, so a file of only the ``fit`` and ``gradient_adjoint``
lines checks those.  Every line that differs is named and the exit
status is 1.

A change that moves rounding changes digests, and then the size of the
move is what matters.  ``--save`` stores the arrays that each line
hashes; ``--against`` reads such a file (written by another commit) and
prints, per workload and quantity, the worst deviation of any hashed
array relative to that array's largest magnitude in the file.  It only
reports: the exit status does not depend on it.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import popdiff  # noqa: E402
import workloads  # noqa: E402
from popdiff.density import sample_array  # noqa: E402
from popdiff.forward import (response, simulate_deterministic_batch,  # noqa: E402
                             unit_responses)
from popdiff.objective import evaluate, input_gram  # noqa: E402
from popdiff.optimizer import Q1_GRID  # noqa: E402
from popdiff.sampled import unit_slopes  # noqa: E402

BAND_SEED = 1
SINGLE_Q_DRAWS = 200


def short(*arrays) -> str:
    return workloads.digest(*arrays)[:16]


def report(w) -> list[tuple[str, str, list]]:
    """(quantity, rest of the line, hashed arrays) for each output line."""
    spec = w.fit.spec
    episodes = workloads.fit_episodes(w)
    result = popdiff.fit(episodes, spec, workloads.START, workloads.FIT_OPTIONS)
    fit = workloads._fit_result(result)
    lines = []

    def line(what, *arrays, tail=""):
        lines.append((what, f"{short(*arrays)}{tail}", list(arrays)))

    line("data", *(ep.y_obs for ep in episodes))
    line("fit", fit["rho_hat"], fit["cost_trace"],
         tail=f" {fit['status']} iterations={fit['iterations']} "
              f"cost_evals={fit['cost_evals']} grad_evals={fit['grad_evals']} "
              f"penalty={result.penalty:.6e}")
    for label, rho in (("START", workloads.START), ("RHO", workloads.RHO)):
        adj = popdiff.gradient_adjoint(rho, spec, episodes)
        line(f"cost@{label}", adj.cost, [c for _, c in adj.per_episode])
        line(f"gradient_adjoint@{label}", adj.cost, adj.grad)
    line("normal_equations@START",
         *evaluate(workloads.START, spec, episodes).normal_equations(input_gram(episodes)))
    ops = popdiff.assemble(spec, workloads.START, with_grad=True)
    line("dmoments@START", ops.dmoments)
    sys = popdiff.build_sampled(ops, spec.tau)
    longest = max(ep.steps for ep in episodes)
    line("response@START", response(sys, longest))
    sens = popdiff.build_sensitivities(ops, sys)
    line("build_sensitivities@START", sens.dnodes, sens.dweights,
         unit_slopes(sens.nodes, spec.n, spec.tau, longest))
    line("unit_responses@Q1_GRID", unit_responses(Q1_GRID, spec.n, spec.tau, longest))
    line("initialize", popdiff.initialize(episodes, spec).as_array())
    at = workloads.RHO if w.band_at_truth else result.rho_hat
    u = workloads.band_input(w, BAND_SEED)
    band = popdiff.credible_band(at, w.band_spec, u, w.level, w.nsamples, BAND_SEED)
    line(f"credible_band@seed{BAND_SEED}", band.lower, band.upper, band.mean_output)
    draws = sample_array(workloads.RHO, SINGLE_Q_DRAWS, BAND_SEED)
    line("single_q@RHO", simulate_deterministic_batch(draws, w.band_spec.n,
                                                      w.band_spec.tau, u))
    return lines


def deviation(got, saved) -> str:
    """Worst |got - saved| relative to max|saved| over one line's arrays."""
    worst = 0.0
    for a, b in zip(got, saved):
        if a.shape != b.shape:
            return f"shape {a.shape} against {b.shape}"
        scale = np.abs(b).max(initial=0.0)
        worst = max(worst, np.abs(a - b).max(initial=0.0) / (scale if scale > 0 else 1.0))
    return f"{worst:.2e}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                    help="workload to digest (repeatable; default: all)")
    ap.add_argument("--expect", type=pathlib.Path,
                    help="saved output to compare with; exit 1 on any difference")
    ap.add_argument("--save", type=pathlib.Path,
                    help="store the hashed arrays in this .npz file")
    ap.add_argument("--against", type=pathlib.Path,
                    help="print the worst deviation from the arrays in this .npz file")
    args = ap.parse_args(argv)
    saved = dict(np.load(args.against)) if args.against else {}
    arrays = {}
    expected = {}
    if args.expect:
        for line in filter(None, args.expect.read_text().splitlines()):
            name, what, rest = line.split(" ", 2)
            expected[name, what] = rest
    compared, differ = 0, []
    for name in args.workload or list(workloads.WORKLOADS):
        for what, rest, hashed in report(workloads.WORKLOADS[name]):
            print(f"{name} {what} {rest}", flush=True)
            hashed = [np.asarray(a, dtype=float) for a in hashed]
            keys = [f"{name} {what} {i}" for i in range(len(hashed))]
            arrays.update(zip(keys, hashed))
            if all(k in saved for k in keys):
                dev = deviation(hashed, [saved[k] for k in keys])
                print(f"DEVIATION {name} {what}: {dev}", file=sys.stderr)
            if (name, what) in expected:
                compared += 1
                if expected[name, what] != rest:
                    differ.append(f"{name} {what}: expected {expected[name, what]}, "
                                  f"got {rest}")
    if args.save:
        np.savez(args.save, **arrays)
    for d in differ:
        print(f"DIFFERS {d}", file=sys.stderr)
    if args.expect:
        print(f"{compared} lines compared, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
