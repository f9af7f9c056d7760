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
expression for every worker and parcel count, whether a pool starts or
not, and any scheduling order.

The coordinator is one of the n workers: it sums parcel 0 itself, then
the parcels after it in turn.  On more than one worker it times its own
products, and after each one it weighs a pool of forked workers for the
parcels not yet begun: it starts one when those parcels' products, at
its mean time per product so far, would take longer than the last cost
measured in this process for a pool of that many processes.  That cost
is the pool's wall time beyond its longest busy process, which covers
fork, hand-off and teardown; before a pool of that size has run here it
is unknown, and the pool starts after the first product.  So a small
sum stays in process and a large one goes to the pool, with no option
or threshold to set.  At one worker nothing is timed or weighed.

The pool has at most n - 1 processes, so that at most n sum at once.  Once the
coordinator has finished its own parcel, it takes back, from the end,
the parcels no worker has started, and sums them too.  Each worker's
initializer sets the run's stores as its module state; the workers
inherit the factor tensors, the assignment list and the env's coprime
basis instead of receiving pickled copies, so only parcel bounds go out
and partial sums come back.  The start method is named because fork is
not the default everywhere (from Python 3.14 not on Linux either).  A
parcel that raises fails the run with the ``WorkerFailure`` the task
raises, naming the parcel; a pool that cannot start, or a worker that
dies without reporting, fails it with a ``WorkerFailure`` that says so.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .contraction import ContractionPlan, InvariantSpec, _check_tensors, keyed_products
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
    """One process's share of a run, the coordinator's included: the entries
    of the parcels it summed and the milliseconds it spent summing them
    (busy time only, not start-up or waiting).  ``RunReport.per_worker``
    lists the processes in the order of the first parcel each took, so the
    coordinator, which sums parcel 0, comes first; then one all-zero entry
    per configured worker that took no parcel or never started."""

    entries: int
    wall_ms: float


@dataclass
class RunReport:
    """One invariant's value, the paper's statistics (P, T, multiplier) and
    how the sum ran: ``per_worker`` has exactly ``workers`` entries, and
    ``pool_ms`` is the pool cost measured in this run (its wall time beyond
    its longest busy process), 0 when the sum stayed in process."""

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
    pool_ms: float
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
            "pool_ms": self.pool_ms,
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

# Pool size (processes forked) -> seconds the last pool of that size in
# this process cost beyond its longest busy process (fork, hand-off and
# teardown); a size no pool has had here has no entry.
_pool_cost_s = {}


def _sum_parcel(i: int, parcel: range, run=None, after_each=None):
    """The canonical sum of parcel ``i``'s products, with the pid of the
    process that summed it and the milliseconds it took.  ``run`` is the
    run's (spec, tensors, entries), the worker's own when not given;
    ``after_each``, when given, is called after each product is summed."""
    spec, tensors, entries = run or _run
    began = time.perf_counter()
    try:
        products = keyed_products(spec, tensors, entries[parcel.start : parcel.stop])
        if after_each is not None:
            products = _calling_after_each(products, after_each)
        value = sum_by_key(tensors[0].env, products)[()]
    except WorkerFailure:
        raise  # the pool failed to start, not the parcel
    except Exception as exc:
        raise WorkerFailure("parcel %d failed: %r" % (i, exc)) from exc
    return os.getpid(), value, (time.perf_counter() - began) * 1000.0


def _calling_after_each(items, call):
    for item in items:
        yield item
        call()


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
    """Sum the parcels and merge the partial sums into the invariant.

    The coordinator sums parcel 0 and those after it.  On more than one
    worker it starts a pool of ``workers - 1`` forked processes (fewer if
    fewer parcels are left) for the parcels not yet begun as soon as their
    projected time (its mean time per product so far, times their
    products) exceeds the cost last measured in this process for a pool of
    that size, or after its first product when no such cost is known yet;
    the run then measures that cost anew.  Having finished its own parcel,
    the coordinator sums the parcels the pool has not started.

    The result expression is byte-identical for every (workers, parcels)
    choice and whether or not a pool starts; only the per-worker
    statistics vary.  A spec with free labels has no scalar value, and
    tensors that do not match the spec's factors would give a wrong one:
    both are rejected before anything is summed.
    """
    if spec.free_labels:
        raise ValueError("execute sums scalars; use contract_free for free labels")
    _check_tensors(spec, tensors)
    started = time.perf_counter()
    parcels = partition(plan, cfg)
    run = (spec, tensors, plan.sum_index_array)
    results = {}  # parcel id -> (pid, partial, busy_ms)
    futures = {}  # parcel id -> Future, for the parcels handed to the pool
    pool = None
    processes = 0  # the pool's size, once it has started
    pool_began = handed_off = 0.0
    summed = 0  # products the coordinator has summed
    i = 0  # the parcel the coordinator is summing

    def weigh_pool():
        nonlocal summed, pool, processes, pool_began, handed_off
        summed += 1
        later = plan.product_count - parcels[i].stop  # in the parcels not yet begun
        if pool is not None or not later:
            return
        size = min(cfg.workers - 1, len(parcels) - i - 1)
        cost = _pool_cost_s.get(size)
        projected = (time.perf_counter() - started) / summed * later
        if cost is not None and projected <= cost:
            return
        pool_began = time.perf_counter()
        try:
            pool = ProcessPoolExecutor(
                max_workers=size,
                mp_context=mp.get_context("fork"),
                initializer=setattr,
                initargs=(sys.modules[__name__], "_run", run),
            )
            processes = size
            for j in range(i + 1, len(parcels)):
                futures[j] = pool.submit(_sum_parcel, j, parcels[j])
        except Exception as exc:
            raise WorkerFailure("could not start the pool: %r" % (exc,)) from exc
        handed_off = time.perf_counter()

    after_each = weigh_pool if cfg.workers > 1 else None
    try:
        while i < len(parcels) and pool is None:
            results[i] = _sum_parcel(i, parcels[i], run, after_each)
            i += 1
        if pool is not None:
            # Starting the pool counts in pool_ms, not in the busy time of
            # the parcel it interrupted.
            pid, partial, busy_ms = results[i - 1]
            results[i - 1] = (pid, partial, busy_ms - (handed_off - pool_began) * 1000.0)
            # Take back, from the end, the parcels no worker has started;
            # workers take parcels from the front.
            for j in reversed(list(futures)):
                if not futures[j].cancel():
                    break
                del futures[j]
                results[j] = _sum_parcel(j, parcels[j], run)
            own_ms = (time.perf_counter() - handed_off) * 1000.0
            try:
                for j, future in futures.items():
                    results[j] = future.result()
            except BrokenProcessPool as exc:
                raise WorkerFailure("a worker exited without reporting") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    pool_ms = 0.0
    if pool is not None:
        busy = {}  # pool pid -> milliseconds
        for j in futures:
            pid, _, busy_ms = results[j]
            busy[pid] = busy.get(pid, 0.0) + busy_ms
        longest = max([own_ms, *busy.values()])
        pool_ms = max(0.0, (time.perf_counter() - pool_began) * 1000.0 - longest)
        _pool_cost_s[processes] = pool_ms / 1000.0
    total = RawSum(tensors[0].env)
    stats = {}  # pid -> WorkerStats, in order of the first parcel taken
    for j, parcel in enumerate(parcels):
        pid, partial, busy_ms = results[j]
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
        pool_ms=pool_ms,
        per_worker=per_worker,
    )
