"""Spans around the calls into curvinv's layers, recorded from the benchmark.

The tracer wraps the public functions that ``curvinv.pipeline`` calls, plus
``Expr.make``, by replacing the module attributes they are looked up
through.  Spans (name, start, end, parent, operation) are kept in memory and
written out as JSON lines when the run ends.  Worker processes are forked
with the wrappers in place but their spans stay in the worker, so
``expr.make`` spans cover the coordinator only; per-worker figures come from
``RunReport.per_worker``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from curvinv import expr, pipeline, tensor

LAYERS = ("metrics", "tensor", "expr", "contraction", "parallel", "pipeline")

# (module, attribute looked up by the caller, span name)
TARGETS = (
    (pipeline, "build_factor_tensors", "pipeline.build_factor_tensors"),
    (pipeline, "riemann_lowered", "tensor.riemann"),
    (pipeline, "christoffel", "tensor.christoffel"),
    (tensor, "christoffel", "tensor.christoffel"),
    (pipeline, "covariant_derivative", "tensor.covariant_derivative"),
    (pipeline, "raise_index", "tensor.raise"),
    (tensor, "inverse_metric", "tensor.inverse"),
    (pipeline, "enumerate_indices", "contraction.enumerate"),
    (pipeline, "execute", "parallel.execute"),
)


class Tracer:
    """Spans kept in memory; ``install`` patches curvinv, ``uninstall``
    restores it.  ``op`` tags new spans with the current operation."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.results = {}  # span name -> value returned by its last call
        self.op = 0
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result

        return traced

    def install(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        make = expr.Expr.__dict__["make"]
        self._saved.append((expr.Expr, "make", make))
        expr.Expr.make = classmethod(self._wrap_make(make.__func__))

    def _wrap_make(self, fn):
        # Expr.make runs thousands of times per operation and returns large
        # values, so it records a span but keeps no result.
        def traced(cls, env, num, den):
            with self.span("expr.make"):
                return fn(cls, env, num, den)

        return traced

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str, origin: float):
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "op": op, "id": sid, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")

    def layer_figures(self, op: int) -> dict:
        """Per-layer times and counts of one operation, from its spans.

        A span's self time is its duration minus that of its child spans;
        a layer's self time sums the self times of its spans.
        """
        spans = [s for s in self.spans if s[5] == op]
        by_id = {s[0]: s for s in spans}
        child_time = {}
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        total = {}
        count = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        make_build = [0, 0.0]
        for sid, name, start, end, parent, _ in spans:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            count[name] = count.get(name, 0) + 1
            self_time[name.split(".")[0]] += duration - child_time.get(sid, 0.0)
            if name == "expr.make" and _inside(by_id, parent, "pipeline.build_factor_tensors"):
                make_build[0] += 1
                make_build[1] += duration
        figures = {
            "metrics.build_s": total.get("metrics.build", 0.0),
            "tensor.inverse_s": total.get("tensor.inverse", 0.0),
            "tensor.riemann_s": total.get("tensor.riemann", 0.0),
            "tensor.christoffel_s": total.get("tensor.christoffel", 0.0),
            "tensor.covariant_derivative_s": total.get("tensor.covariant_derivative", 0.0),
            "tensor.raise_s": total.get("tensor.raise", 0.0),
            "tensor.raise_calls": count.get("tensor.raise", 0),
            "expr.make_calls_build": make_build[0],
            "expr.make_s_build": make_build[1],
            "contraction.enumerate_s": total.get("contraction.enumerate", 0.0),
            "parallel.execute_s": total.get("parallel.execute", 0.0),
            "pipeline.build_factor_tensors_s": total.get("pipeline.build_factor_tensors", 0.0),
            "pipeline.run_invariant_s": total.get("pipeline.run_invariant", 0.0),
        }
        for layer in LAYERS:
            figures[layer + ".self_s"] = self_time[layer]
        return figures


def _inside(by_id: dict, parent, name: str) -> bool:
    while parent is not None:
        span = by_id[parent]
        if span[1] == name:
            return True
        parent = span[4]
    return False
