"""Serial stand-ins for the old thread fan-out; no popdiff computation
calls them any more.

Monte Carlo draws are solved in batches by
``forward.simulate_deterministic_batch``, which measured faster than
fanning single draws out over threads.  The module stays only because
the benchmark harness still refers to it by name: ``perfbench/run.py``
imports ``worker_count`` and ``perfbench/tracing.py`` wraps
``thread_map``.  The next change to the benchmark deletes this module
together with those two references.
"""

from __future__ import annotations


def worker_count(n_items: int) -> int:
    return 1


def thread_map(fn, items) -> list:
    return [fn(item) for item in items]
