"""Spans around the calls into ternstab's layers, for the traced run.

The library carries no instrumentation of its own.  ``patched`` replaces
each public function at the place that imports it (``harness.solve_exact_derivations``,
``stability.hyers_limit`` and so on) with a wrapper that records one span
per call: id, name, start, end, parent span and op id, plus a few counts
taken from the call's arguments or result.  ``layer_totals`` folds the
spans of one op into busy time, self time (busy time minus the part its
child spans cover) and summed counts per span name.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from ternstab import algebra, harness, maps, module, stability

#: counts that combine by maximum across calls; all others are summed
MAX_COUNTS = {"system_bytes"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1  # -1 while setting up
        self._ids = itertools.count()
        self._local = threading.local()
        # spans opened by worker threads (run_sweep's pool) hang below the
        # innermost open span of the thread that created the tracer
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            op = self.op
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if counts and result is not None else None
                self.spans.append((sid, name, start, end, parent, op, extra))

        return traced

    def take(self) -> list:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _solve_counts(args, kwargs, basis):
    mod = args[0]
    da, dx = mod.algebra.dim, mod.dim
    itemsize = np.dtype(mod.dtype).itemsize
    return {"null_dim": len(basis), "system_bytes": da**3 * dx * dx * da * itemsize}


def _doublings(args, kwargs, result):
    stab = result.stabilization
    return {"doublings": sum(map(sum, stab.iterations.values())) if stab else 0}


def _sweep_workers(args, kwargs, rows):
    return {"workers": min(harness.thread_count(), max(1, len(rows)))}


def _written_bytes(args, kwargs, path):
    return {"bytes": path.stat().st_size}


def _assoc_tuples(args, kwargs, report):
    return {"tuples": report.checked}


def _module_tuples(args, kwargs, report):
    return {"tuples": report.tuples_checked}


#: (module, attribute, span name, counts) for every wrapped call site
SITES = (
    (harness, "load_config", "harness.load_config", None),
    (harness, "run_experiment", "harness.run_experiment", _doublings),
    (harness, "run_sweep", "harness.sweep", _sweep_workers),
    (harness, "solve_exact_derivations", "maps.solve", _solve_counts),
    (harness, "check_hypothesis", "stability.check_hypothesis", None),
    (harness, "direct_method_stabilize", "stability.direct_method", None),
    (harness, "write_json", "serialize.write", _written_bytes),
    (harness, "write_trace_csv", "serialize.write", _written_bytes),
    (stability, "hyers_limit", "stability.hyers_limit", None),
    (stability, "cauchy_tail_bound", "control.tail_bound", None),
    (stability, "summed_majorant", "control.majorant", None),
    (stability, "lie_derivation_residual", "maps.residual", None),
    (stability, "ternary_product", "algebra.ternary_product", None),
    # maps and module import ternary_product lazily from algebra
    (algebra, "ternary_product", "algebra.ternary_product", None),
    (stability, "product_xab", "module.product", None),
    (stability, "product_abx", "module.product", None),
    (maps, "product_xab", "module.product", None),
    (maps, "product_abx", "module.product", None),
    (module, "product_xab", "module.product", None),
    (module, "product_axb", "module.product", None),
    (module, "product_abx", "module.product", None),
    (algebra, "check_ternary_associativity", "algebra.check_assoc", _assoc_tuples),
    (module, "check_module_axioms", "module.check_axioms", _module_tuples),
)


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    originals = [(site, attr, getattr(site, attr)) for site, attr, _, _ in SITES]
    originals.append((harness, "perturb_map", harness.perturb_map))
    try:
        for site, attr, name, counts in SITES:
            setattr(site, attr, tracer.wrap(name, getattr(site, attr), counts))
        perturb = harness.perturb_map

        def traced_perturb_map(*args, **kwargs):
            m = perturb(*args, **kwargs)
            fn = tracer.wrap("harness.perturb_eval", m.fn)
            return stability.EvaluableMap(m.in_dim, m.out_dim, fn, m.kind)

        harness.perturb_map = traced_perturb_map
        yield tracer
    finally:
        for site, attr, original in originals:
            setattr(site, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans) -> dict:
    """Per span name: ``calls``, busy ``s``, ``self_s`` and summed counts.

    ``harness.sweep`` also gets ``point_s``, the busy time of its
    ``run_experiment`` children, and ``capacity_s``, its wall time times its
    worker count.
    """
    children = defaultdict(list)
    for _sid, name, start, end, parent, _op, _extra in spans:
        if parent is not None:
            children[parent].append((start, end, name))
    totals: dict = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _parent, _op, extra in spans:
        row = totals[name]
        kids = children.get(sid, ())
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - _covered([k[:2] for k in kids], start, end)
        for key, value in (extra or {}).items():
            row[key] = max(row[key], value) if key in MAX_COUNTS else row[key] + value
        if name == "harness.sweep":
            row["point_s"] += sum(e - s for s, e, n in kids if n == "harness.run_experiment")
            row["capacity_s"] += (end - start) * (extra or {}).get("workers", 1)
    return totals
