"""Parcel-parallel summation of enumerated component products.

The enumerated assignment list is split into m*n near-equal contiguous
parcels for n workers: ``range``s of entry positions, each parcel's id
its place in the list.  The products that ``contraction.keyed_products``
yields for a parcel's entries go to an ``expr.RawSum``, which
canonicalises the sum once.  A pool worker's task, ``_sum_parcel``,
returns one parcel's partial sum; the coordinator adds every parcel it
sums to one partial.
The coordinator merges the partials in one more ``RawSum``, each with the
abbreviation multiplier as its coefficient.  Canonical forms are unique,
so the result is the same expression for every worker and parcel count,
whether a pool starts or not, and any scheduling order.

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
initializer sets the plan as its module state; the workers inherit the
plan (its tensors and assignment list) and the env's coprime basis
instead of receiving pickled copies, so only parcel bounds go out and
partial sums come back.  The start method is named because fork is
not the default everywhere (from Python 3.14 not on Linux either).  A
parcel that raises fails the run with a ``WorkerFailure`` naming the
parcel, wherever it was summed; a pool that cannot start, or a worker that
dies without reporting, fails it with a ``WorkerFailure`` that says so.

The pool's modules (``multiprocessing``, ``concurrent.futures``) load with
the first pool this process starts, so importing curvinv, a one-worker run
and a sum the coordinator keeps in process never load them.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple

from .contraction import ContractionPlan, keyed_products
from .expr import RawSum, sum_by_key


class WorkerFailure(Exception):
    """A parcel's task raised or a worker process died; the run produced no
    result."""


# Each worker is one process; more than a few per CPU only adds spawn cost,
# and a mistyped count must not start thousands of processes.
MAX_WORKERS = 4 * (os.cpu_count() or 1)


class RunConfig(namedtuple("RunConfig", ("workers", "parcels_per_worker"))):
    """How a sum runs: the number of worker processes, the coordinator
    included, and the parcels per worker.  Checked on every construction,
    ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, workers: int = 1, parcels_per_worker: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > MAX_WORKERS:
            raise ValueError(
                "workers must be <= %d (4 per CPU), got %d" % (MAX_WORKERS, workers)
            )
        if parcels_per_worker < 1:
            raise ValueError("parcels_per_worker must be >= 1")
        return super().__new__(cls, workers, parcels_per_worker)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class WorkerStats(namedtuple("WorkerStats", ("entries", "wall_ms"))):
    """One process's share of a run, the coordinator's included: the entries
    of the parcels it summed and the milliseconds it spent summing them to
    its partials (busy time only, not start-up or waiting; the coordinator's
    one partial includes canonicalising it).  ``RunReport.per_worker``
    lists the processes in the order of the first parcel each took, so the
    coordinator, which sums parcel 0, comes first; then one all-zero entry
    per configured worker that took no parcel or never started."""

    __slots__ = ()


class RunReport(
    namedtuple(
        "RunReport",
        (
            "invariant", "expression", "P", "T", "multiplier", "product_count",
            "raise_mults", "dim", "spec_text", "metric_name", "workers", "parcels",
            "wall_ms", "pool_ms", "per_worker",
        ),
    )
):
    """One invariant's value (an ``Expr``), the paper's statistics (P, T,
    multiplier) and how the sum ran: ``per_worker`` has exactly ``workers``
    entries (a list of :class:`WorkerStats`), and ``pool_ms`` is the pool
    cost measured in this run (its wall time beyond its longest busy
    process), 0 when the sum stayed in process."""

    __slots__ = ()

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


# The plan a forked worker sums parcels of: set in each worker by the pool's
# initializer, never in the coordinator, so no run's stores outlive it.
_run = None

# Pool size (processes forked) -> seconds the last pool of that size in
# this process cost beyond its longest busy process (fork, hand-off and
# teardown); a size no pool has had here has no entry.
_pool_cost_s = {}


def _sum_parcel(i: int, parcel: range):
    """A pool worker's task: the canonical sum of parcel ``i``'s products,
    with the worker's pid and the milliseconds it took."""
    began = time.perf_counter()
    try:
        products = keyed_products(_run, _run.sum_index_array[parcel.start : parcel.stop])
        value = sum_by_key(_run.tensors[0].env, products)[()]
    except Exception as exc:
        raise WorkerFailure("parcel %d failed: %r" % (i, exc)) from exc
    return os.getpid(), value, (time.perf_counter() - began) * 1000.0


def execute(
    plan: ContractionPlan,
    cfg: RunConfig,
    *,
    raise_mults: int = 0,
    metric_name: str = "",
    spec_text: str = "",
) -> RunReport:
    """Sum the parcels over the plan's own tensors and merge the partials.

    The coordinator adds the products of parcel 0, then of those after
    it, to its one partial sum.  On more than one worker it starts a pool
    of ``workers - 1`` forked processes (fewer if fewer parcels are left)
    for the parcels not yet begun as soon as their projected time (its
    mean time per product so far, times their products) exceeds the cost
    last measured in this process for a pool of that size, or after its
    first product when no such cost is known yet; the run then measures
    that cost anew.  Having finished its own parcel, the coordinator adds
    the parcels the pool has not started to its partial, canonicalises it
    once, and merges it with the pool's partials.

    The result expression is byte-identical for every (workers, parcels)
    choice and whether or not a pool starts; only the per-worker
    statistics vary.  A spec with free labels has no scalar value: it is
    rejected before anything is summed.
    """
    if plan.spec.free_labels:
        raise ValueError("execute sums scalars; use contract_free for free labels")
    started = time.perf_counter()
    parcels = partition(plan, cfg)
    entries = plan.sum_index_array
    own = RawSum(plan.tensors[0].env)  # the coordinator's partial, over every parcel it sums
    futures = {}  # parcel id -> Future, for the parcels handed to the pool
    pool = None
    processes = 0  # the pool's size, once it has started
    pool_began = handed_off = 0.0

    def weigh_pool(i, summed):
        nonlocal pool, processes, pool_began, handed_off
        later = plan.product_count - parcels[i].stop  # in the parcels not yet begun
        if not later:
            return
        size = min(cfg.workers - 1, len(parcels) - i - 1)
        cost = _pool_cost_s.get(size)
        projected = (time.perf_counter() - started) / summed * later
        if cost is not None and projected <= cost:
            return
        # Imported here, so a run that starts no pool never loads them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool_began = time.perf_counter()
        try:
            pool = ProcessPoolExecutor(
                max_workers=size,
                mp_context=multiprocessing.get_context("fork"),
                initializer=setattr,
                initargs=(sys.modules[__name__], "_run", plan),
            )
            processes = size
            for j in range(i + 1, len(parcels)):
                futures[j] = pool.submit(_sum_parcel, j, parcels[j])
        except Exception as exc:
            raise WorkerFailure("could not start the pool: %r" % (exc,)) from exc
        handed_off = time.perf_counter()

    def sum_own(i):
        # Add parcel i's products to the coordinator's partial, weighing the
        # pool after each while none runs (until then it sums from entry 0).
        parcel = parcels[i]
        try:
            products = keyed_products(plan, entries[parcel.start : parcel.stop])
            for summed, (_, factors, coefficient) in enumerate(products, parcel.start + 1):
                own.add_product(factors, coefficient)
                if pool is None and cfg.workers > 1:
                    weigh_pool(i, summed)
        except WorkerFailure:
            raise  # the pool failed to start, not the parcel
        except Exception as exc:
            raise WorkerFailure("parcel %d failed: %r" % (i, exc)) from exc

    try:
        for i in range(len(parcels)):
            sum_own(i)
            if pool is not None:
                break
        # Take back, from the end, the parcels no worker has started;
        # workers take parcels from the front.
        for j in reversed(list(futures)):
            if not futures[j].cancel():
                break
            del futures[j]
            sum_own(j)
        total = RawSum(plan.tensors[0].env)
        total.add_product((own.value(),), plan.multiplier)
        done = time.perf_counter()
        stats = {}  # pool pid -> WorkerStats, in order of the first parcel taken
        if futures:  # the pool started, so its modules are loaded
            from concurrent.futures.process import BrokenProcessPool

            try:
                for j, future in futures.items():
                    pid, partial, busy_ms = future.result()
                    total.add_product((partial,), plan.multiplier)
                    entries, wall_ms = stats.get(pid, (0, 0.0))
                    stats[pid] = WorkerStats(entries + len(parcels[j]), wall_ms + busy_ms)
            except BrokenProcessPool as exc:
                raise WorkerFailure("a worker exited without reporting") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    # Starting the pool counts in pool_ms, not in the coordinator's busy time.
    own_ms = (done - started - (handed_off - pool_began)) * 1000.0
    pool_ms = 0.0
    if pool is not None:
        busy = [(done - handed_off) * 1000.0, *(w.wall_ms for w in stats.values())]
        pool_ms = max(0.0, (time.perf_counter() - pool_began) * 1000.0 - max(busy))
        _pool_cost_s[processes] = pool_ms / 1000.0
    own_entries = plan.product_count - sum(len(parcels[j]) for j in futures)
    per_worker = [WorkerStats(own_entries, own_ms)] if parcels else []
    per_worker += stats.values()
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
        dim=plan.tensors[0].dim,
        spec_text=spec_text,
        metric_name=metric_name,
        workers=cfg.workers,
        parcels=len(parcels),
        wall_ms=wall_ms,
        pool_ms=pool_ms,
        per_worker=per_worker,
    )
