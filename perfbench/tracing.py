"""Spans around the public functions of popdiff's layers.

The benchmark times each layer from outside: every function listed in
``TARGETS`` is wrapped in a timer, and the wrapper is installed under
every name that refers to the function in the loaded popdiff modules.
The package imports with ``from .x import y``, so one function is bound
in several modules (``simulate`` lives in forward, objective,
uncertainty, dataio and the package itself) and each binding has to be
replaced for the calls made through it to be seen.

Spans stay in memory (name, start, end, parent, thread, operation id)
until the run ends.  Each thread keeps its own span stack, because
``parallel.thread_map`` runs single-q simulations on worker threads; a
worker's outermost span takes the open ``thread_map`` span as parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    work: int = 0            # steps simulated, exponentials computed, ...
    error: str | None = None  # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _assemble_name(args, kwargs):
    with_grad = _arg(args, kwargs, 4, "with_grad", False)
    return "assembly.assemble_grad" if with_grad else "assembly.assemble"


def _steps(args, kwargs):
    return len(_arg(args, kwargs, 1, "u"))


def _expm_count(args, kwargs):
    # One augmented exponential per (parameter, cell): computed, not timed.
    ops = _arg(args, kwargs, 0, "ops")
    return ops.dM_blocks.shape[0] * ops.ncells


# qualified function -> (span name or namer, work counter, opens a fan-out)
TARGETS = {
    "popdiff.density.sample_array": ("density.sample_array", None, False),
    "popdiff.density.normalization": ("density.normalization", None, False),
    "popdiff.assembly.assemble": (_assemble_name, None, False),
    "popdiff.sampled.build_sampled": ("sampled.build_sampled", None, False),
    "popdiff.sampled.build_sensitivities": ("sampled.build_sensitivities", _expm_count, False),
    "popdiff.forward.simulate": ("forward.simulate", _steps, False),
    "popdiff.forward.simulate_deterministic": ("forward.simulate_deterministic", None, False),
    "popdiff.objective.cost": ("objective.cost", None, False),
    "popdiff.objective.gradient_adjoint": ("objective.gradient_adjoint", None, False),
    # u is the second argument of episode_cost_and_gradient(sys, u, y_obs).
    "popdiff.objective.episode_cost_and_gradient": ("objective.adjoint", _steps, False),
    "popdiff.optimizer.fit": ("optimizer.fit", None, False),
    "popdiff.optimizer.fit_deterministic": ("optimizer.fit_deterministic", None, False),
    "popdiff.optimizer.initialize": ("optimizer.initialize", None, False),
    "popdiff.parallel.thread_map": ("parallel.thread_map", None, True),
    "popdiff.uncertainty.credible_band": ("uncertainty.credible_band", None, False),
    "popdiff.dataio.generate_synthetic": ("dataio.generate_synthetic", None, False),
}


class Tracer:
    """In-memory span recorder; records only while ``op`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = iter(range(sys.maxsize))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, work=None, fanout=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else self._fanout
            label = name(args, kwargs) if callable(name) else name
            count = work(args, kwargs) if work else 0
            stack.append(span_id)
            outer_fanout = self._fanout
            if fanout:
                self._fanout = span_id
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                if fanout:
                    self._fanout = outer_fanout
                stack.pop()
                self.spans.append(Span(span_id, label, start, end, parent,
                                       threading.get_ident(), op, count, error))

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "popdiff" or n.startswith("popdiff."))]
    patched = []
    try:
        for qualname, (name, work, fanout) in TARGETS.items():
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(original, name, work, fanout)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        patched.append((module, binding, original))
        yield patched
    finally:
        for module, binding, original in reversed(patched):
            setattr(module, binding, original)


# ------------------------------------------------------------- attribution

def _innermost_segments(spans):
    """Per thread, the intervals in which each span is the innermost open one."""
    segments = []
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append(s)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, -s.end))
        stack = []
        cursor = None
        for s in thread_spans:
            while stack and stack[-1].end <= s.start:
                top = stack.pop()
                segments.append((cursor, top.end, top))
                cursor = top.end
            if stack:
                segments.append((cursor, s.start, stack[-1]))
            stack.append(s)
            cursor = s.start
        while stack:
            top = stack.pop()
            segments.append((cursor, top.end, top))
            cursor = top.end
    return [seg for seg in segments if seg[1] > seg[0]]


def self_times(spans) -> dict[int, float]:
    """Wall-clock self time of every span, by span id.

    A span's self time is the part of its interval that no child span
    covers.  When spans on several threads are innermost at the same
    instant, that instant is split evenly between them, and a span whose
    descendants are running on another thread (``thread_map`` waiting for
    its workers) gets none of it.  The self times of all spans therefore
    add up to the time covered by any span, never more than the wall
    time of the traced region.
    """
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        out = set()
        parent = span.parent
        while parent is not None and parent not in out:
            out.add(parent)
            parent = by_id[parent].parent if parent in by_id else None
        return out

    lineage = {s.id: ancestors(s) for s in spans}
    events = []
    for i, (start, end, span) in enumerate(_innermost_segments(spans)):
        events.append((start, 1, i, span))
        events.append((end, 0, i, span))
    events.sort(key=lambda e: (e[0], e[1]))

    result = defaultdict(float)
    active: dict[int, Span] = {}
    last = None
    for t, opening, i, span in events:
        if active and last is not None and t > last:
            running = list(active.values())
            waiting = set().union(*(lineage[s.id] for s in running))
            busy = [s for s in running if s.id not in waiting]
            for s in busy:
                result[s.id] += (t - last) / len(busy)
        last = t
        if opening:
            active[i] = span
        else:
            del active[i]
    return dict(result)
