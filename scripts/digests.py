#!/usr/bin/env python3
"""Bit-identity digests of the benchmark workloads' outputs.

For each workload of ``perfbench/workloads.py`` this prints the first 16
hex digits of ``workloads.digest`` over:

* the fit from ``START`` (``rho_hat`` and the cost trace), with its
  status, iteration count and cost/gradient evaluation counts;
* the cost at ``START`` and at ``RHO`` (total and per episode), so a
  change that must leave the forward pass alone shows that it did;
* ``gradient_adjoint`` (cost and gradient) at ``START`` and at ``RHO``;
* ``build_sensitivities`` at ``START`` (``dA_blocks`` and ``dBhat``), so a
  change in the sensitivity layer is named directly;
* ``initialize`` on the fit episodes;
* ``credible_band`` on the band input of seed 1, at ``RHO`` or at the
  fit's ``rho_hat`` as the workload's rounds place it.

A refactoring that must not change one bit of output leaves every digest
unchanged.  Digests depend on the BLAS kernel, so compare two commits on
one machine; no test pins them.  Run from the repository root:

    python3 scripts/digests.py [--workload NAME ...] [--expect FILE]

With ``--expect`` each output line is compared to the line of the same
workload and quantity in a saved run; lines the file does not hold are
not compared, so a file of only the ``fit`` and ``gradient_adjoint``
lines checks those.  Every line that differs is named and the exit
status is 1.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import popdiff  # noqa: E402
import workloads  # noqa: E402

BAND_SEED = 1


def short(*arrays) -> str:
    return workloads.digest(*arrays)[:16]


def report(w) -> list[str]:
    spec = w.fit.spec
    episodes = workloads.fit_episodes(w)
    result = popdiff.fit(episodes, spec, workloads.START, workloads.FIT_OPTIONS)
    fit = workloads._fit_result(result)
    lines = [
        f"fit {short(fit['rho_hat'], fit['cost_trace'])} {fit['status']} "
        f"iterations={fit['iterations']} cost_evals={fit['cost_evals']} "
        f"grad_evals={fit['grad_evals']}"
    ]
    for label, rho in (("START", workloads.START), ("RHO", workloads.RHO)):
        adj = popdiff.gradient_adjoint(rho, spec, episodes)
        lines.append(f"cost@{label} {short(adj.cost, [c for _, c in adj.per_episode])}")
        lines.append(f"gradient_adjoint@{label} {short(adj.cost, adj.grad)}")
    ops = popdiff.assemble(spec, workloads.START, with_grad=True)
    sens = popdiff.build_sensitivities(ops, popdiff.build_sampled(ops, spec.tau))
    lines.append(f"build_sensitivities@START {short(sens.dA_blocks, sens.dBhat)}")
    lines.append(f"initialize {short(popdiff.initialize(episodes, spec).as_array())}")
    at = workloads.RHO if w.band_at_truth else result.rho_hat
    band = popdiff.credible_band(at, w.band_spec,
                                 workloads.band_input(w, BAND_SEED), w.level,
                                 w.nsamples, BAND_SEED)
    lines.append(f"credible_band@seed{BAND_SEED} "
                 f"{short(band.lower, band.upper, band.mean_output)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                    help="workload to digest (repeatable; default: all)")
    ap.add_argument("--expect", type=pathlib.Path,
                    help="saved output to compare with; exit 1 on any difference")
    args = ap.parse_args(argv)
    expected = {}
    if args.expect:
        for line in filter(None, args.expect.read_text().splitlines()):
            name, what, rest = line.split(" ", 2)
            expected[name, what] = rest
    compared, differ = 0, []
    for name in args.workload or list(workloads.WORKLOADS):
        for line in report(workloads.WORKLOADS[name]):
            print(f"{name} {line}", flush=True)
            what, rest = line.split(" ", 1)
            if (name, what) in expected:
                compared += 1
                if expected[name, what] != rest:
                    differ.append(f"{name} {what}: expected {expected[name, what]}, "
                                  f"got {rest}")
    for d in differ:
        print(f"DIFFERS {d}", file=sys.stderr)
    if args.expect:
        print(f"{compared} lines compared, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
