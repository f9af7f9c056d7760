"""Benchmark of curvinv's invariant pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kerr4_Ib_a1_w2 --seed 1 --seconds 30 --trace 0

Each operation builds a fresh Metric with ``metric_with_substitutions`` and
computes one invariant with ``run_invariant``; operations repeat in a closed
loop, one at a time, until ``--seconds`` have passed.  A fresh Metric per
operation matters: Riemann, its derivatives and the inverse metric are
cached per Metric instance, so reusing one would time only the later stages.

Every distinct result is checked against a value computed without curvinv
(see reference.py), exactly and at rational points drawn from ``--seed``.
The seed chooses only those check points; the workload itself is fixed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the loop runs with spans recorded
around each layer (spans.py) and the metrics are the per-layer ones, and
the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

I_B = "R(+a,+b,+c,+d) R(+e,+f,-a,-b) R(-c,-d,-e,-f)"
I_C = "R(+a,+b,+c,+d;+e) R(-a,-b,-c,-d;-e)"
I_2 = "R(+a,+b,+c,+d) R(-a,-e,-f,-g) R(+e,+f,-b,-h) R(+g,+h,-c,-d)"
KRETSCHMANN = "R(+a,+b,+c,+d) R(-a,-b,-c,-d)"

SETUP_PROBES = 5
CHECK_POINTS = 3


@dataclass(frozen=True)
class Workload:
    metric: str
    dim: int
    substitutions: tuple  # ((symbol, Fraction), ...)
    spec: str
    workers: int
    # Builds the expected invariant without curvinv; called after timing.
    reference: Callable


def _sphere_I2(n: int) -> Workload:
    return Workload("sphere", n, (), I_2, 1, lambda ref: ref.sphere_I2(n))


def _tangherlini_Ic(dim: int) -> Workload:
    return Workload("kerr", dim, (("a", Fraction(0)),), I_C, 1,
                    lambda ref: ref.tangherlini_Ic(dim))


# Why these three: see README.md.  kerr4_Ib_a1_w2 spends its time building
# tensors over the rho^2/Delta denominators and is the only one with a
# sizeable two-worker sum; sphere6_I2 is dominated by index enumeration;
# kerr6_Ic_a0 by Christoffel, nabla R and raising over monomial denominators.
WORKLOADS = {
    "kerr4_Ib_a1_w2": Workload("kerr", 4, (("a", Fraction(1)),), I_B, 2,
                               lambda ref: ref.kerr4_Ib(1)),
    "sphere6_I2": _sphere_I2(6),
    "kerr6_Ic_a0": _tangherlini_Ic(6),
}

# Smaller members of the same families, for the dimension sweep in README.md.
SWEEP = {
    **{"sphere%d_I2" % n: _sphere_I2(n) for n in (4, 5)},
    **{"kerr%d_Ic_a0" % d: _tangherlini_Ic(d) for d in (4, 5)},
}

END_TO_END_UNITS = {"invariant_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer figures that are counts; every other per-layer figure is seconds.
COUNTS = frozenset({
    "tensor.raise_calls", "tensor.raise_mults", "tensor.factor_nnz",
    "expr.make_calls_build", "expr.max_terms", "expr.result_terms",
    "contraction.products", "parallel.parcels", "parallel.entries", "pipeline.P",
})


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _probe_setup(w: Workload) -> float:
    """Seconds from starting a fresh interpreter to its first Metric."""
    args = [sys.executable, os.path.join(HERE, "setup_probe.py"), w.metric, str(w.dim)]
    args += ["%s=%s" % (sym, value) for sym, value in w.substitutions]
    start = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe failed with exit code %s" % code)
    return elapsed


def _factor_figures(tensors) -> dict:
    distinct = {id(t): t for t in tensors}.values()
    return {
        "tensor.factor_nnz": sum(t.nnz() for t in distinct),
        "expr.max_terms": max(
            (v.term_count() for t in distinct for _, v in t.items()), default=0
        ),
    }


def _report_figures(report) -> dict:
    busy = [w.wall_ms / 1000.0 for w in report.per_worker]
    return {
        "tensor.raise_mults": report.raise_mults,
        "contraction.products": report.product_count,
        "parallel.busy_max_s": max(busy, default=0.0),
        "parallel.busy_sum_s": sum(busy),
        "parallel.parcels": report.parcels,
        "parallel.entries": sum(w.entries for w in report.per_worker),
        "pipeline.P": report.P,
        "expr.result_terms": report.T,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from curvinv.parallel import RunConfig
    from curvinv.pipeline import metric_with_substitutions, run_invariant

    w = {**WORKLOADS, **SWEEP}[workload]
    cfg = RunConfig(workers=w.workers)  # one parcel per worker, per-parcel cadence

    # Warm-up: first-call costs (lazy imports, ring creation, the worker
    # start path) on a small case, so they fall in no timed operation.
    run_invariant(metric_with_substitutions("sphere", 3, ()), KRETSCHMANN, cfg)

    tracer = None
    build, compute = metric_with_substitutions, run_invariant
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        build = tracer.wrap("metrics.build", build)
        compute = tracer.wrap("pipeline.run_invariant", compute)

    wall, cpu, setup, layers, outputs = [], [], [], [], set()
    attempted = failed = 0
    origin = time.perf_counter()
    try:
        while attempted == 0 or time.perf_counter() - origin < seconds:
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
                tracer.results.clear()
            gc.collect()
            try:
                metric = build(w.metric, w.dim, w.substitutions)
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                report = compute(metric, w.spec, cfg, metric_name=w.metric)
                wall.append(time.perf_counter() - t0)
                cpu.append(_cpu_seconds() - cpu0)
            except Exception as exc:  # counted in "failed"; the loop goes on
                failed += 1
                print("operation %d failed: %r" % (attempted, exc), file=sys.stderr)
                continue
            outputs.add(report.expression)
            print("op %d: %.3f s wall, %.3f s cpu" % (attempted, wall[-1], cpu[-1]),
                  file=sys.stderr)
            if tracer is not None:
                figures = tracer.layer_figures(attempted)
                tensors, _ = tracer.results["pipeline.build_factor_tensors"]
                figures.update(_factor_figures(tensors))
                figures.update(_report_figures(report))
                figures["parallel.overhead_s"] = (
                    figures["parallel.execute_s"] - figures["parallel.busy_max_s"])
                layers.append(figures)
            del metric, report
            if tracer is None:
                # Probes spread over the run see the same mix of host speeds
                # as the operations, rather than one short stretch of it.
                setup.append(_probe_setup(w))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss = _peak_rss_mb()
    if not wall:
        raise RuntimeError("all %d operations failed" % attempted)

    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.jsonl" % (workload, seed)), origin)
        metrics = {}
        for name in sorted(layers[0]):
            values = [f[name] for f in layers]
            if name in COUNTS:
                metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
    else:
        while len(setup) < SETUP_PROBES:
            setup.append(_probe_setup(w))
        values = {
            "invariant_s": statistics.median(wall),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": peak_rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    # Imported only now, so numpy and the reference computation stay out of
    # the peak RSS read above.
    import reference

    expected = w.reference(reference)
    points = reference.random_points(random.Random(seed), CHECK_POINTS)
    correct = all(reference.agrees(text, expected, points) for text in outputs)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **SWEEP}))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvinv", "__init__.py")):
        print("error: no curvinv sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import curvinv

    if not os.path.abspath(curvinv.__file__).startswith(SRC + os.sep):
        print("error: curvinv imported from %s, not from the checkout" % curvinv.__file__,
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
