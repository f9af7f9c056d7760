"""Parcel-parallel summation of enumerated component products.

The enumerated assignment list is split into m*n near-equal contiguous
parcels for n workers; idle workers pull the next parcel from a shared
queue, accumulate a private partial sum, and hand exactly one canonical
partial sum back when the queue drains.

The ``per-parcel`` cadence multiplies each entry's components raw and sums
the products grouped by denominator (``expr.RawSum``), canonicalising once
per distinct denominator at the end of the parcel.  The ``per-entry``
cadence canonicalises each product and adds it to the partial sum at once.
Canonical forms are unique, so the merged, multiplier-scaled sum is the
same expression for either cadence, every worker and parcel count, and any
scheduling order.  A worker that dies, with or without reporting, ends the
run in WorkerFailure.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from dataclasses import dataclass, field

from .contraction import ContractionPlan, InvariantSpec, ProductEvaluator
from .expr import Expr, RawSum, balanced_sum


class WorkerFailure(Exception):
    """A worker process died; the run produced no result."""


CADENCES = ("per-parcel", "per-entry")

# Each worker is one process; more than a few per CPU only adds spawn cost,
# and a mistyped count must not start thousands of processes.
MAX_WORKERS = 4 * (os.cpu_count() or 1)


@dataclass(frozen=True)
class Parcel:
    id: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class RunConfig:
    workers: int = 1
    parcels_per_worker: int = 1
    simplify_cadence: str = "per-parcel"

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(
                "workers must be <= %d (4 per CPU), got %d" % (MAX_WORKERS, self.workers)
            )
        if self.parcels_per_worker < 1:
            raise ValueError("parcels_per_worker must be >= 1")
        if self.simplify_cadence not in CADENCES:
            raise ValueError("simplify_cadence must be one of %s" % (CADENCES,))


@dataclass
class WorkerStats:
    entries: int
    wall_ms: float


@dataclass
class RunReport:
    invariant: Expr
    expression: str
    P: int
    T: int
    multiplier: int
    product_count: int
    raise_mults: int
    dim: int
    spec_text: str
    metric_name: str
    workers: int
    parcels: int
    wall_ms: float
    per_worker: list

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric_name,
            "dim": self.dim,
            "spec": self.spec_text,
            "multiplier": self.multiplier,
            "P": self.P,
            "product_count": self.product_count,
            "raise_mults": self.raise_mults,
            "T": self.T,
            "expression": self.expression,
            "workers": self.workers,
            "parcels": self.parcels,
            "wall_ms": self.wall_ms,
            "per_worker": [
                {"entries": w.entries, "wall_ms": w.wall_ms} for w in self.per_worker
            ],
        }


def partition(plan: ContractionPlan, cfg: RunConfig) -> list:
    """Split the assignment list into at most workers*parcels_per_worker
    contiguous parcels whose sizes differ by at most one."""
    n = len(plan.sum_index_array)
    if n == 0:
        return []
    count = min(cfg.workers * cfg.parcels_per_worker, n)
    bounds = [i * n // count for i in range(count + 1)]
    return [Parcel(i, bounds[i], bounds[i + 1]) for i in range(count)]


def _worker_loop(worker_id, spec, tensors, entries, parcels, cadence, task_q, result_q):
    try:
        evaluate = ProductEvaluator(spec, tensors)
        env = tensors[0].env
        partial = env.zero()
        done = 0
        busy = 0.0
        while True:
            pid = task_q.get()
            if pid is None:
                break
            parcel = parcels[pid]
            start = time.perf_counter()
            if cadence == "per-entry":
                for entry in entries[parcel.start : parcel.stop]:
                    partial = partial + evaluate(entry)
            else:
                products = RawSum(env)
                for entry in entries[parcel.start : parcel.stop]:
                    products.add_product(evaluate.factors(entry))
                partial = partial + products.value()
            busy += time.perf_counter() - start
            done += len(parcel)
        result_q.put((worker_id, partial, done, busy * 1000.0))
    except Exception as exc:  # surfaced by the coordinator as WorkerFailure
        result_q.put(("error", worker_id, repr(exc)))
        raise


# How long the coordinator waits on the result queue before it looks for
# workers that exited without reporting; a result is taken as it arrives.
_POLL_SECONDS = 0.5


def _gather(procs, result_q) -> list:
    """One result per worker, in worker order.

    A worker that reports an error, or exits without reporting (os._exit,
    an OOM kill), raises WorkerFailure instead of blocking forever.
    """
    results = {}
    while len(results) < len(procs):
        # Taken before the wait: a worker that has exited has already
        # flushed its result into the queue's pipe, so if the wait then
        # times out, that worker never reported.
        exited = [i for i, p in enumerate(procs) if p.exitcode is not None]
        try:
            item = result_q.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            lost = [i for i in exited if i not in results]
            if lost:
                raise WorkerFailure(
                    "worker %d exited with code %s without reporting"
                    % (lost[0], procs[lost[0]].exitcode)
                ) from None
            continue
        if item[0] == "error":
            raise WorkerFailure("worker %s failed: %s" % (item[1], item[2]))
        results[item[0]] = item
    return [results[i] for i in range(len(procs))]


def execute(
    plan: ContractionPlan,
    spec: InvariantSpec,
    tensors,
    cfg: RunConfig,
    *,
    raise_mults: int = 0,
    metric_name: str = "",
    spec_text: str = "",
) -> RunReport:
    """Run the parcel pool and merge the partial sums into the invariant.

    The result expression is byte-identical for every (workers, parcels)
    choice; only the per-worker statistics vary.
    """
    started = time.perf_counter()
    env = tensors[0].env
    zero = env.zero()
    parcels = partition(plan, cfg)
    n = cfg.workers
    if not parcels:
        partials = []
        stats = [WorkerStats(0, 0.0) for _ in range(n)]
    else:
        task_q = mp.Queue()
        result_q = mp.Queue()
        for parcel in parcels:
            task_q.put(parcel.id)
        for _ in range(n):
            task_q.put(None)
        procs = [
            mp.Process(
                target=_worker_loop,
                args=(
                    i,
                    spec,
                    tensors,
                    plan.sum_index_array,
                    parcels,
                    cfg.simplify_cadence,
                    task_q,
                    result_q,
                ),
            )
            for i in range(n)
        ]
        for p in procs:
            p.start()
        try:
            results = _gather(procs, result_q)
        except WorkerFailure:
            for p in procs:
                p.terminate()
            for p in procs:
                p.join()
            raise
        for p in procs:
            p.join()
            if p.exitcode != 0:
                raise WorkerFailure("worker exited with code %s" % p.exitcode)
        partials = [partial for _, partial, _, _ in results]
        stats = [WorkerStats(done, ms) for _, _, done, ms in results]
    invariant = balanced_sum(partials, zero) * plan.multiplier
    wall_ms = (time.perf_counter() - started) * 1000.0
    return RunReport(
        invariant=invariant,
        expression=str(invariant),
        P=plan.product_count + raise_mults,
        T=invariant.term_count(),
        multiplier=plan.multiplier,
        product_count=plan.product_count,
        raise_mults=raise_mults,
        dim=plan.dim,
        spec_text=spec_text,
        metric_name=metric_name,
        workers=cfg.workers,
        parcels=len(parcels),
        wall_ms=wall_ms,
        per_worker=stats,
    )
