"""Parcel-parallel summation of enumerated component products.

The enumerated assignment list is split into m*n near-equal contiguous
parcels for n workers: ``range``s of entry positions, each parcel's id
its place in the list.  One task, ``_sum_parcel``, passes the products
that ``contraction.keyed_products`` yields for its parcel's entries (all
under the key ``()``, as no label is free) to ``expr.sum_by_key``, the
same stream and the same sum that ``contract_free`` runs in process:
numerators multiplied out raw, grouped by their factors' denominators and
brought together over the env's coprime basis of denominators.  It
returns the parcel's canonical partial sum.  The coordinator merges the
partials in one more ``RawSum``, each with the abbreviation multiplier as
its coefficient.  Canonical forms are unique, so the result is the same
expression for every worker and parcel count and any scheduling order.

At one worker the coordinator maps the task over the parcels itself,
passing it the run's stores directly: no pool starts and no module state
is set.  On more workers it maps the task over a pool of forked workers,
so a worker takes the next parcel as it goes idle.  Each worker's
initializer sets the run's stores as its module state; the workers
inherit the factor tensors, the assignment list and the env's coprime
basis instead of receiving pickled copies, so only parcel bounds go out
and partial sums come back.  The start method is named because fork is
not the default everywhere (from Python 3.14 not on Linux either).  A
parcel that raises fails the run with the ``WorkerFailure`` the task
raises, naming the parcel; a worker that dies without reporting breaks
the pool, the one other failure.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat

from .contraction import ContractionPlan, InvariantSpec, keyed_products
from .expr import Expr, RawSum, sum_by_key


class WorkerFailure(Exception):
    """A parcel's task raised or a worker process died; the run produced no
    result."""


# Each worker is one process; more than a few per CPU only adds spawn cost,
# and a mistyped count must not start thousands of processes.
MAX_WORKERS = 4 * (os.cpu_count() or 1)


@dataclass(frozen=True)
class RunConfig:
    workers: int = 1
    parcels_per_worker: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(
                "workers must be <= %d (4 per CPU), got %d" % (MAX_WORKERS, self.workers)
            )
        if self.parcels_per_worker < 1:
            raise ValueError("parcels_per_worker must be >= 1")


@dataclass
class WorkerStats:
    """One worker process's share of a run: the entries of the parcels it
    summed and the milliseconds it spent summing them (busy time only, not
    start-up or waiting).  ``RunReport.per_worker`` lists the processes in
    the order of the first parcel each took, then one all-zero entry per
    configured worker that took no parcel."""

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
    per_worker: list  # of WorkerStats, padded to `workers` entries

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
    contiguous ranges of entry positions whose sizes differ by at most
    one; a parcel's id is its place in the list."""
    n = len(plan.sum_index_array)
    if n == 0:
        return []
    count = min(cfg.workers * cfg.parcels_per_worker, n)
    bounds = [i * n // count for i in range(count + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(count)]


# The run a forked worker sums parcels of, (spec, tensors, entries): set in
# each worker by the pool's initializer, never in the coordinator, so no
# run's stores outlive it.
_run = None


def _sum_parcel(i: int, parcel: range, run=None):
    """The canonical sum of parcel ``i``'s products, with the pid of the
    process that summed it and the milliseconds it took.  ``run`` is the
    run's (spec, tensors, entries), the worker's own when not given."""
    spec, tensors, entries = run or _run
    began = time.perf_counter()
    try:
        products = keyed_products(spec, tensors, entries[parcel.start : parcel.stop])
        value = sum_by_key(tensors[0].env, products)[()]
    except Exception as exc:
        raise WorkerFailure("parcel %d failed: %r" % (i, exc)) from exc
    return os.getpid(), value, (time.perf_counter() - began) * 1000.0


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
    """Sum the parcels, on a pool of forked workers or, at one worker, in
    this process, and merge the partial sums into the invariant.

    The result expression is byte-identical for every (workers, parcels)
    choice; only the per-worker statistics vary.  A spec with free labels
    has no scalar value and is rejected.
    """
    if spec.free_labels:
        raise ValueError("execute sums scalars; use contract_free for free labels")
    started = time.perf_counter()
    parcels = partition(plan, cfg)
    total = RawSum(tensors[0].env)
    stats = {}  # pid -> WorkerStats, in order of the first parcel taken
    if parcels:
        run = (spec, tensors, plan.sum_index_array)
        ids = range(len(parcels))
        if cfg.workers == 1:
            results = list(map(_sum_parcel, ids, parcels, repeat(run)))
        else:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(cfg.workers, len(parcels)),
                    mp_context=mp.get_context("fork"),
                    initializer=setattr,
                    initargs=(sys.modules[__name__], "_run", run),
                ) as pool:
                    results = list(pool.map(_sum_parcel, ids, parcels))
            except BrokenProcessPool as exc:
                raise WorkerFailure("a worker exited without reporting") from exc
        for parcel, (pid, partial, busy_ms) in zip(parcels, results):
            total.add_product((partial,), plan.multiplier)
            worker = stats.setdefault(pid, WorkerStats(0, 0.0))
            worker.entries += len(parcel)
            worker.wall_ms += busy_ms
    per_worker = list(stats.values())
    per_worker += [WorkerStats(0, 0.0) for _ in range(cfg.workers - len(per_worker))]
    invariant = total.value()
    wall_ms = (time.perf_counter() - started) * 1000.0
    return RunReport(
        invariant=invariant,
        expression=str(invariant),
        P=plan.product_count + raise_mults,
        T=invariant.term_count(),
        multiplier=plan.multiplier,
        product_count=plan.product_count,
        raise_mults=raise_mults,
        dim=tensors[0].dim,
        spec_text=spec_text,
        metric_name=metric_name,
        workers=cfg.workers,
        parcels=len(parcels),
        wall_ms=wall_ms,
        per_worker=per_worker,
    )
