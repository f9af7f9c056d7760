import multiprocessing as mp
import os

import pytest

from curvinv import parallel
from curvinv.contraction import ContractionPlan, enumerate_indices, parse_spec
from curvinv.metrics import flat, sphere_metric
from curvinv.parallel import (
    MAX_WORKERS,
    Parcel,
    RunConfig,
    WorkerFailure,
    execute,
    partition,
)
from curvinv.pipeline import build_factor_tensors

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
    plan = enumerate_indices(spec, tensors, metric.dim)
    return spec, tensors, plan, raise_mults


def _dummy_plan(n):
    return ContractionPlan(
        sum_index_array=tuple((i,) for i in range(n)),
        multiplier=1,
        dim=2,
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
        spec, tensors, plan, _ = _plan_for(g, KRETSCHMANN)
        report = execute(plan, spec, tensors, RunConfig(workers=3), metric_name="flat")
        assert report.invariant.is_zero
        assert report.expression == "0"
        assert report.T == 0
        assert len(report.per_worker) == 3
        assert sum(w.entries for w in report.per_worker) == 0

    def test_sphere_all_configs_identical(self, s3):
        spec, tensors, plan, _ = _plan_for(s3, KRETSCHMANN)
        expressions = set()
        for workers in (1, 2, 4):
            for parcels in (1, 3):
                report = execute(
                    plan,
                    spec,
                    tensors,
                    RunConfig(workers=workers, parcels_per_worker=parcels),
                )
                expressions.add(report.expression)
                assert len(report.per_worker) == workers
                assert sum(w.entries for w in report.per_worker) == plan.product_count
        assert len(expressions) == 1

    def test_grouped_and_canonical_cadences_match_oracle(self, s3, schwarzschild4):
        # parcels group raw products by denominator; the oracle
        # canonicalises each product and adds them one at a time
        for g, text in ((s3, I_B), (schwarzschild4, I_C)):
            spec, tensors, plan, _ = _plan_for(g, text)
            oracle = sequential_oracle(plan, spec, tensors)
            assert not oracle.is_zero
            cfg = RunConfig(workers=2, parcels_per_worker=3)
            report = execute(plan, spec, tensors, cfg)
            assert report.parcels == min(6, plan.product_count)
            assert report.invariant == oracle
            assert report.expression == str(oracle)

    def test_matches_sequential_oracle(self, s2, s3):
        for g, text in ((s2, KRETSCHMANN), (s3, KRETSCHMANN), (s3, I_B)):
            spec, tensors, plan, _ = _plan_for(g, text)
            report = execute(plan, spec, tensors, RunConfig(workers=2, parcels_per_worker=2))
            oracle = sequential_oracle(plan, spec, tensors)
            assert (report.invariant - oracle).is_zero
            assert report.invariant == oracle

    def test_report_statistics(self, s3):
        spec, tensors, plan, raise_mults = _plan_for(s3, KRETSCHMANN)
        report = execute(
            plan,
            spec,
            tensors,
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
        spec, tensors, plan, _ = _plan_for(s2, KRETSCHMANN)
        # poison the plan with an assignment that addresses a missing
        # component: the worker's KeyError must become a run failure
        poisoned = ContractionPlan(
            sum_index_array=plan.sum_index_array + ((1, 1, 1, 1),),
            multiplier=plan.multiplier,
            dim=plan.dim,
        )
        with pytest.raises(WorkerFailure, match="parcel 1 failed: KeyError"):
            execute(poisoned, spec, tensors, RunConfig(workers=2))

    def test_one_worker_starts_no_pool(self, s3, monkeypatch):
        spec, tensors, plan, _ = _plan_for(s3, I_B)
        expected = execute(plan, spec, tensors, RunConfig(workers=2, parcels_per_worker=2))

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        report = execute(plan, spec, tensors, RunConfig(workers=1, parcels_per_worker=3))
        assert report.expression == expected.expression
        assert report.parcels == 3
        assert len(report.per_worker) == 1
        assert report.per_worker[0].entries == plan.product_count

    def test_one_worker_failure_names_the_parcel(self, s2, monkeypatch):
        spec, tensors, plan, _ = _plan_for(s2, KRETSCHMANN)
        poisoned = ContractionPlan(
            sum_index_array=plan.sum_index_array + ((1, 1, 1, 1),),
            multiplier=plan.multiplier,
            dim=plan.dim,
        )
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", None)
        with pytest.raises(WorkerFailure, match="parcel 1 failed: KeyError"):
            execute(poisoned, spec, tensors, RunConfig(workers=1, parcels_per_worker=2))

    def test_dead_worker_does_not_hang(self, s2, monkeypatch, deadline):
        # The worker that looks up the first entry's factors exits without
        # reporting, as under an OOM kill; forked workers inherit the patch.
        spec, tensors, plan, _ = _plan_for(s2, I_B)
        real = parallel.ProductEvaluator.factors
        first = plan.sum_index_array[0]

        def dying_factors(self, entry):
            if entry == first:
                os._exit(1)
            return real(self, entry)

        monkeypatch.setattr(parallel.ProductEvaluator, "factors", dying_factors)
        with deadline(5), pytest.raises(WorkerFailure, match="without reporting"):
            execute(plan, spec, tensors, RunConfig(workers=2))


class TestSequentialOracle:
    def test_flat_zero(self):
        g = flat(3)
        spec, tensors, plan, _ = _plan_for(g, KRETSCHMANN)
        assert sequential_oracle(plan, spec, tensors).is_zero

    def test_two_sphere_kretschmann_is_four(self, s2):
        spec, tensors, plan, _ = _plan_for(s2, KRETSCHMANN)
        assert sequential_oracle(plan, spec, tensors) == s2.env.integer(4)
