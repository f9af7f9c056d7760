import concurrent.futures
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import time

import pytest

import curvinv
from curvinv import expr, parallel
from curvinv.contraction import ContractionPlan, enumerate_indices, parse_spec
from curvinv.metrics import flat, kerr, sphere_metric
from curvinv.parallel import (
    MAX_WORKERS,
    RunConfig,
    WorkerFailure,
    execute,
    partition,
)
from curvinv.pipeline import build_factor_tensors, run_invariant
from curvinv.tensor import TensorField

from oracles import sequential_oracle

KRETSCHMANN = "R(+a,+b,+c,+d) R(-a,-b,-c,-d)"
I_B = "R(+a,+b,+c,+d) R(+e,+f,-a,-b) R(-c,-d,-e,-f)"
I_C = "R(+a,+b,+c,+d;+e) R(-a,-b,-c,-d;-e)"


@pytest.fixture(autouse=True)
def no_stray_workers():
    """A run, successful or failed, must leave no worker process behind."""
    yield
    assert mp.active_children() == []


def _plan_for(metric, text):
    spec = parse_spec(text)
    tensors, raise_mults = build_factor_tensors(metric, spec)
    return enumerate_indices(spec, tensors), raise_mults


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _cost_for_every_pool(seconds):
    """A recorded pool cost of ``seconds`` for every pool size."""
    return dict.fromkeys(range(1, MAX_WORKERS), seconds)


def _dummy_plan(n):
    return ContractionPlan(
        spec=None,
        tensors=(),
        sum_index_array=tuple((i,) for i in range(n)),
        multiplier=1,
    )


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        with pytest.raises(ValueError):
            RunConfig(parcels_per_worker=0)

    def test_workers_capped(self):
        # Validation only: an over-cap count must never reach a pool.
        assert RunConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError):
            RunConfig(workers=MAX_WORKERS + 1)
        with pytest.raises(ValueError):
            RunConfig(workers=10 ** 6)


class TestPartition:
    def test_balanced_split(self):
        parcels = partition(_dummy_plan(10), RunConfig(workers=3, parcels_per_worker=1))
        assert [len(p) for p in parcels] == [3, 3, 4] or [len(p) for p in parcels] == [4, 3, 3]
        assert sorted(len(p) for p in parcels) == [3, 3, 4]

    def test_covers_disjointly(self):
        parcels = partition(_dummy_plan(23), RunConfig(workers=4, parcels_per_worker=3))
        assert parcels[0].start == 0
        assert parcels[-1].stop == 23
        for left, right in zip(parcels, parcels[1:]):
            assert left.stop == right.start
        sizes = {len(p) for p in parcels}
        assert max(sizes) - min(sizes) <= 1

    def test_empty_plan(self):
        assert partition(_dummy_plan(0), RunConfig(workers=4)) == []

    def test_single_parcel(self):
        parcels = partition(_dummy_plan(7), RunConfig(workers=1, parcels_per_worker=1))
        assert len(parcels) == 1
        assert (parcels[0].start, parcels[0].stop) == (0, 7)

    def test_never_more_parcels_than_entries(self):
        parcels = partition(_dummy_plan(3), RunConfig(workers=4, parcels_per_worker=4))
        assert len(parcels) == 3


class TestExecute:
    def test_flat_metric_yields_zero(self):
        g = flat(4)
        plan, _ = _plan_for(g, KRETSCHMANN)
        report = execute(plan, RunConfig(workers=3), metric_name="flat")
        assert report.invariant.is_zero
        assert report.expression == "0"
        assert report.T == 0
        assert len(report.per_worker) == 3
        assert sum(w.entries for w in report.per_worker) == 0

    def test_sphere_all_configs_identical(self, s3, monkeypatch):
        # Both ways the pool rule can go: with no cost known the pool starts
        # after the first product; with an hour recorded it never does.
        plan, _ = _plan_for(s3, KRETSCHMANN)
        assert plan.product_count >= 2
        expressions = set()
        for cost in (None, 3600.0):
            for workers in (1, 2, 4):
                for parcels in (1, 3):
                    costs = {} if cost is None else _cost_for_every_pool(cost)
                    monkeypatch.setattr(parallel, "_pool_cost_s", costs)
                    report = execute(
                        plan,
                        RunConfig(workers=workers, parcels_per_worker=parcels),
                    )
                    expressions.add(report.expression)
                    assert len(report.per_worker) == workers
                    assert sum(w.entries for w in report.per_worker) == plan.product_count
                    for w in report.per_worker:
                        # the coordinator's busy time includes canonicalising
                        # its partial; a worker that took no parcel reports 0
                        assert (w.wall_ms > 0) if w.entries else (w.wall_ms == 0.0)
                    pooled = cost is None and workers > 1
                    assert (report.pool_ms > 0) == pooled
                    if not pooled:
                        assert report.per_worker[0].entries == plan.product_count
        assert len(expressions) == 1

    def test_coordinator_canonicalises_one_partial(self, s3, monkeypatch):
        # However many parcels the coordinator sums, it canonicalises one
        # partial, and the merge one more sum.
        plan, _ = _plan_for(s3, I_B)
        monkeypatch.setattr(parallel, "_pool_cost_s", _cost_for_every_pool(3600.0))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        real = expr.RawSum.value
        calls = []

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(expr.RawSum, "value", counting)
        counts = []
        for workers, parcels in ((1, 1), (1, 4), (2, 3)):
            calls.clear()
            report = execute(plan, RunConfig(workers, parcels))
            assert report.parcels == min(workers * parcels, plan.product_count)
            counts.append(len(calls))
        assert counts == [2, 2, 2]

    def test_grouped_and_canonical_cadences_match_oracle(
        self, s3, schwarzschild4, monkeypatch
    ):
        # parcels group raw products by denominator; the oracle
        # canonicalises each product and adds them one at a time
        for g, text in ((s3, I_B), (schwarzschild4, I_C)):
            monkeypatch.setattr(parallel, "_pool_cost_s", {})  # each run pools
            plan, _ = _plan_for(g, text)
            oracle = sequential_oracle(plan)
            assert not oracle.is_zero
            cfg = RunConfig(workers=2, parcels_per_worker=3)
            report = execute(plan, cfg)
            assert report.parcels == min(6, plan.product_count)
            assert report.invariant == oracle
            assert report.expression == str(oracle)

    def test_matches_sequential_oracle(self, s2, s3, monkeypatch):
        for g, text in ((s2, KRETSCHMANN), (s3, KRETSCHMANN), (s3, I_B)):
            monkeypatch.setattr(parallel, "_pool_cost_s", {})  # each run pools
            plan, _ = _plan_for(g, text)
            report = execute(plan, RunConfig(workers=2, parcels_per_worker=2))
            oracle = sequential_oracle(plan)
            assert (report.invariant - oracle).is_zero
            assert report.invariant == oracle

    def test_report_statistics(self, s3):
        plan, raise_mults = _plan_for(s3, KRETSCHMANN)
        report = execute(
            plan,
            RunConfig(workers=2, parcels_per_worker=2),
            raise_mults=raise_mults,
            metric_name="sphere",
            spec_text=KRETSCHMANN,
        )
        assert report.P == plan.product_count + raise_mults
        assert report.T == report.invariant.term_count()
        assert report.multiplier == plan.multiplier
        assert report.dim == 3
        assert report.metric_name == "sphere"
        assert report.spec_text == KRETSCHMANN
        assert report.parcels == min(4, plan.product_count)
        assert report.wall_ms > 0

    def test_worker_failure_surfaces(self, s2):
        plan, _ = _plan_for(s2, KRETSCHMANN)
        # poison the plan with an assignment that addresses a missing
        # component: the worker's KeyError must become a run failure
        poisoned = plan._replace(
            sum_index_array=plan.sum_index_array + ((1, 1, 1, 1),)
        )
        with pytest.raises(WorkerFailure, match="parcel 1 failed: KeyError"):
            execute(poisoned, RunConfig(workers=2))

    def test_free_labels_rejected(self, s2):
        # summed over its free labels too, R(+a,-*b,-a,-*d) is a scalar that
        # is no invariant: execute must refuse it rather than return it
        plan, _ = _plan_for(s2, "R(+a,-*b,-a,-*d)")
        assert plan.product_count > 0
        for workers in (1, 2):
            with pytest.raises(ValueError, match="contract_free"):
                execute(plan, RunConfig(workers=workers))

    def test_one_worker_starts_no_pool(self, s3, monkeypatch):
        plan, _ = _plan_for(s3, I_B)
        expected = execute(plan, RunConfig(workers=2, parcels_per_worker=2))
        # forget the cost that expected's pool recorded
        monkeypatch.setattr(parallel, "_pool_cost_s", {})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        report = execute(plan, RunConfig(workers=1, parcels_per_worker=3))
        assert report.expression == expected.expression
        assert report.parcels == 3
        assert report.pool_ms == 0
        assert len(report.per_worker) == 1
        assert report.per_worker[0].entries == plan.product_count

    def test_cost_above_projection_starts_no_pool(self, schwarzschild4, monkeypatch):
        plan, _ = _plan_for(schwarzschild4, I_C)
        expected = execute(plan, RunConfig(workers=1))
        monkeypatch.setattr(parallel, "_pool_cost_s", {1: 3600.0})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        report = execute(plan, RunConfig(workers=2, parcels_per_worker=2))
        assert report.expression == expected.expression
        assert report.parcels == 4
        assert report.pool_ms == 0
        assert parallel._pool_cost_s == {1: 3600.0}
        assert [w.entries for w in report.per_worker] == [plan.product_count, 0]

    def test_unknown_cost_starts_pool_and_records_it(self, s3, monkeypatch):
        plan, _ = _plan_for(s3, I_B)
        expected = execute(plan, RunConfig(workers=1))
        pools = []  # max_workers of each pool started
        real = concurrent.futures.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        cfg = RunConfig(workers=2, parcels_per_worker=2)
        report = execute(plan, cfg)
        # the coordinator is one of the two workers, though two parcels
        # are left when the pool starts
        assert report.parcels == 3
        assert pools == [1]
        assert report.expression == expected.expression
        assert report.pool_ms > 0
        assert parallel._pool_cost_s == {1: report.pool_ms / 1000.0}
        assert len(report.per_worker) == 2
        assert report.per_worker[0].entries >= len(partition(plan, cfg)[0])
        assert sum(w.entries for w in report.per_worker) == plan.product_count

    def test_cost_is_kept_per_pool_size(self, schwarzschild4, monkeypatch):
        # An hour recorded for a pool of one process says nothing about a
        # pool of three: a 4-worker run forks one and records its cost,
        # and a 2-worker run still keeps its sum in process.
        plan, _ = _plan_for(schwarzschild4, I_C)
        monkeypatch.setattr(parallel, "_pool_cost_s", {1: 3600.0})
        pools = []  # max_workers of each pool started
        real = concurrent.futures.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        four = execute(plan, RunConfig(workers=4))
        assert plan.product_count >= 4
        assert pools == [3]
        assert four.pool_ms > 0
        assert parallel._pool_cost_s == {1: 3600.0, 3: four.pool_ms / 1000.0}
        two = execute(plan, RunConfig(workers=2))
        assert pools == [3]
        assert two.pool_ms == 0
        assert two.expression == four.expression

    def test_pool_that_cannot_start_is_not_blamed_on_a_parcel(self, s3, monkeypatch):
        plan, _ = _plan_for(s3, KRETSCHMANN)

        def no_fork(*args, **kwargs):
            raise OSError("fork failed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
        with pytest.raises(WorkerFailure, match=r"^could not start the pool: OSError"):
            execute(plan, RunConfig(workers=2))

    def test_coordinator_takes_back_parcels_not_started(
        self, schwarzschild4, monkeypatch, deadline
    ):
        # The one pool worker is slow, so the coordinator, done with parcel
        # 0, sums parcels from the end that the worker has not started.
        plan, _ = _plan_for(schwarzschild4, I_C)
        expected = execute(plan, RunConfig(workers=1))
        cfg = RunConfig(workers=2, parcels_per_worker=4)
        parcels = partition(plan, cfg)
        assert len(parcels) == 8
        coordinator = os.getpid()
        real = parallel.keyed_products

        def slow_in_workers(plan, entries, coefficient=1):
            if os.getpid() != coordinator:
                time.sleep(0.2)
            return real(plan, entries, coefficient)

        monkeypatch.setattr(parallel, "keyed_products", slow_in_workers)
        with deadline(10):
            report = execute(plan, cfg)
        assert report.expression == expected.expression
        coordinator_entries, worker_entries = (w.entries for w in report.per_worker)
        assert coordinator_entries > len(parcels[0])
        assert worker_entries > 0
        assert coordinator_entries + worker_entries == plan.product_count

    def test_failure_in_a_parcel_taken_back_names_it(
        self, schwarzschild4, monkeypatch, deadline
    ):
        # The one pool worker is slow, so the coordinator takes back the
        # last parcel, whose last entry addresses a missing component.
        plan, _ = _plan_for(schwarzschild4, I_C)
        poisoned = plan._replace(
            sum_index_array=plan.sum_index_array + ((0,) * len(plan.sum_index_array[0]),)
        )
        cfg = RunConfig(workers=2, parcels_per_worker=4)
        assert len(partition(poisoned, cfg)) == 8
        coordinator = os.getpid()
        real = parallel.keyed_products

        def slow_in_workers(plan, entries, coefficient=1):
            if os.getpid() != coordinator:
                time.sleep(0.2)
            return real(plan, entries, coefficient)

        monkeypatch.setattr(parallel, "keyed_products", slow_in_workers)
        with deadline(10), pytest.raises(WorkerFailure, match="parcel 7 failed: KeyError") as failed:
            execute(poisoned, cfg)
        # raised in the coordinator: a worker's failure comes back pickled,
        # its cause the remote traceback
        assert isinstance(failed.value.__cause__, KeyError)

    def test_plan_sums_its_own_tensors(self, schwarzschild4):
        # The plan carries the tensors it was enumerated from, so no sum can
        # read others.  When plan and tensors were passed apart, the
        # Schwarzschild plan (6 entries) summed over the a=1 Kerr tensors
        # gave a 44-term expression with no error; the a=1 I_b has 5 terms.
        expressions = []
        for g in (schwarzschild4, kerr(4).substitute("a", 1)):
            spec = parse_spec(I_B)
            tensors, _ = build_factor_tensors(g, spec)
            plan = enumerate_indices(spec, tensors)
            assert len(plan.tensors) == len(tensors)
            assert all(mine is given for mine, given in zip(plan.tensors, tensors))
            report = execute(plan, RunConfig(2))
            assert report.expression == run_invariant(g, I_B).expression
            expressions.append(report.expression)
        assert expressions[0] != expressions[1]

    def test_pooled_run_pickles_no_tensor(self, s3, monkeypatch):
        # Forked workers inherit the plan; only parcel bounds go out.  The
        # workers inherit the patch too, so a pickled tensor fails the run.
        # No pool cost is known, so the 2-worker run starts the pool.
        plan, _ = _plan_for(s3, I_B)
        expected = execute(plan, RunConfig(workers=1))

        def no_pickling(self, protocol):
            raise AssertionError("a tensor was pickled")

        monkeypatch.setattr(TensorField, "__reduce_ex__", no_pickling)
        report = execute(plan, RunConfig(2, 3))
        assert report.pool_ms > 0
        assert report.expression == expected.expression
        with pytest.raises(AssertionError, match="a tensor was pickled"):
            pickle.dumps(plan)

    def test_one_worker_failure_names_the_parcel(self, s2, monkeypatch):
        plan, _ = _plan_for(s2, KRETSCHMANN)
        poisoned = plan._replace(
            sum_index_array=plan.sum_index_array + ((1, 1, 1, 1),)
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        with pytest.raises(WorkerFailure, match="parcel 1 failed: KeyError"):
            execute(poisoned, RunConfig(workers=1, parcels_per_worker=2))

    def test_dead_worker_does_not_hang(self, s3, monkeypatch, deadline):
        # With no pool cost known, the pool starts after the coordinator's
        # first product and takes parcel 1, which holds the last entry.  The
        # pool worker exits without reporting, as under an OOM kill, when it
        # asks for that parcel's products; forked workers inherit the patch.
        # The coordinator never exits, so a run that took the parcel back
        # would fail the match instead of ending the test process.
        plan, _ = _plan_for(s3, I_B)
        real = parallel.keyed_products
        last = plan.sum_index_array[-1]
        coordinator = os.getpid()

        def dying_products(plan, entries, coefficient=1):
            if last in entries and os.getpid() != coordinator:
                os._exit(1)
            return real(plan, entries, coefficient)

        monkeypatch.setattr(parallel, "keyed_products", dying_products)
        with deadline(5), pytest.raises(WorkerFailure, match="without reporting"):
            execute(plan, RunConfig(workers=2))


def test_pool_modules_load_only_with_a_pool():
    # A fresh interpreter, so that this process's own imports (pytest's,
    # this file's multiprocessing) do not hide what curvinv loads.
    script = (
        "import sys\n"
        "from curvinv import RunConfig, run_invariant, sphere_metric\n"
        "POOL = ('multiprocessing', 'concurrent.futures')\n"
        "def pool_modules():\n"
        "    return [m for m in POOL if m in sys.modules]\n"
        "g = sphere_metric(3)\n"
        "alone = run_invariant(g, %r)\n"
        "assert alone.pool_ms == 0, alone\n"
        "assert pool_modules() == [], pool_modules()\n"
        "pooled = run_invariant(g, %r, RunConfig(workers=2))\n"
        "assert pooled.pool_ms > 0, pooled\n"
        "assert pool_modules() == list(POOL), pool_modules()\n"
        "assert pooled.expression == alone.expression, (pooled, alone)\n"
    ) % (KRETSCHMANN, KRETSCHMANN)
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestSequentialOracle:
    def test_flat_zero(self):
        g = flat(3)
        plan, _ = _plan_for(g, KRETSCHMANN)
        assert sequential_oracle(plan).is_zero

    def test_two_sphere_kretschmann_is_four(self, s2):
        plan, _ = _plan_for(s2, KRETSCHMANN)
        assert sequential_oracle(plan) == s2.env.integer(4)
