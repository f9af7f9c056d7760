"""Parcel-parallel summation of enumerated component products.

The enumerated assignment list is split into m*n near-equal contiguous
parcels for n workers.  Each parcel is one task of a
``concurrent.futures.ProcessPoolExecutor``, so a worker takes the next
parcel as it goes idle.  A task multiplies each entry's component
numerators raw, sums the products grouped by their factors' denominators
(``expr.RawSum``, which brings the groups together over the env's coprime
basis of denominators) and returns the parcel's canonical partial sum.
The coordinator merges the partials in one more ``RawSum``, each with the
abbreviation multiplier as its coefficient.  Canonical forms are unique,
so the result is the same expression for every worker and parcel count
and any scheduling order.

The pool forks its workers, so they inherit the factor tensors, the
assignment list and the env's coprime basis instead of receiving pickled
copies: only parcel bounds go out and partial sums come back.  The start
method is named because fork is not the default everywhere (from Python
3.14 not on Linux either).  At one worker no pool is started: the
coordinator sums the parcels itself, one after another.  A parcel that
raises, or a worker that dies without reporting, ends the run in
WorkerFailure.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .contraction import ContractionPlan, InvariantSpec, ProductEvaluator
from .expr import Expr, RawSum


class WorkerFailure(Exception):
    """A parcel's task raised or a worker process died; the run produced no
    result."""


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
    contiguous parcels whose sizes differ by at most one."""
    n = len(plan.sum_index_array)
    if n == 0:
        return []
    count = min(cfg.workers * cfg.parcels_per_worker, n)
    bounds = [i * n // count for i in range(count + 1)]
    return [Parcel(i, bounds[i], bounds[i + 1]) for i in range(count)]


# Set in each worker by _init_worker: (ProductEvaluator, SymbolEnv, entries).
_state = None


def _init_worker(evaluate, env, entries):
    global _state
    _state = (evaluate, env, entries)


def _sum_parcel(evaluate, env, entries):
    """The canonical sum of one parcel's products, with the pid of the
    process that summed it and the milliseconds it took."""
    began = time.perf_counter()
    products = RawSum(env)
    for entry in entries:
        products.add_product(evaluate.factors(entry))
    value = products.value()
    return os.getpid(), value, (time.perf_counter() - began) * 1000.0


def _sum_worker_parcel(start: int, stop: int):
    evaluate, env, entries = _state
    return _sum_parcel(evaluate, env, entries[start:stop])


def _in_process(parcels, evaluate, env, entries) -> list:
    """Each parcel's result, summed in this process, in parcel order."""
    results = []
    for parcel in parcels:
        try:
            results.append(_sum_parcel(evaluate, env, entries[parcel.start : parcel.stop]))
        except Exception as exc:
            raise WorkerFailure("parcel %d failed: %r" % (parcel.id, exc)) from exc
    return results


def _on_pool(parcels, workers, evaluate, env, entries) -> list:
    """Each parcel's result, summed on a pool of forked workers, in parcel
    order."""
    with ProcessPoolExecutor(
        max_workers=min(workers, len(parcels)),
        mp_context=mp.get_context("fork"),
        initializer=_init_worker,
        initargs=(evaluate, env, entries),
    ) as pool:
        futures = [pool.submit(_sum_worker_parcel, p.start, p.stop) for p in parcels]
        results = []
        for parcel, future in zip(parcels, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                raise WorkerFailure("a worker exited without reporting") from exc
            except Exception as exc:
                pool.shutdown(cancel_futures=True)
                raise WorkerFailure("parcel %d failed: %r" % (parcel.id, exc)) from exc
    return results


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
    choice; only the per-worker statistics vary.
    """
    started = time.perf_counter()
    env = tensors[0].env
    parcels = partition(plan, cfg)
    total = RawSum(env)
    stats = {}  # pid -> WorkerStats, in order of the first parcel taken
    if parcels:
        run = (ProductEvaluator(spec, tensors), env, plan.sum_index_array)
        if cfg.workers == 1:
            results = _in_process(parcels, *run)
        else:
            results = _on_pool(parcels, cfg.workers, *run)
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
        dim=plan.dim,
        spec_text=spec_text,
        metric_name=metric_name,
        workers=cfg.workers,
        parcels=len(parcels),
        wall_ms=wall_ms,
        per_worker=per_worker,
    )
