"""Bounded thread fan-out; no popdiff computation calls it any more.

Monte Carlo draws are solved in batches by
``forward.simulate_deterministic_batch``, which measured faster than
fanning single draws out over threads.  The module stays only because
the benchmark harness still refers to it by name: ``perfbench/run.py``
imports ``worker_count`` and ``perfbench/tracing.py`` wraps
``thread_map``.  The next change to the benchmark deletes this module
together with those two references.

POPDIFF_THREADS caps the worker count; results always come back in input
order, so parallel runs are bit-identical to serial ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count(n_items: int) -> int:
    cap = os.environ.get("POPDIFF_THREADS")
    if cap:
        workers = max(1, int(cap))
    else:
        workers = min(4, os.cpu_count() or 1)
    return max(1, min(workers, n_items))


def thread_map(fn, items) -> list:
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1 or len(items) < 8:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
