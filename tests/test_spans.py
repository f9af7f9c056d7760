"""The benchmark's span recorder (perfbench/spans.py) patches curvinv by
attribute name; a rename in curvinv would otherwise break only traced
benchmark runs."""

import importlib.util
import pathlib
import sys

import pytest

from curvinv.expr import Expr
from curvinv.metrics import kerr, sphere_metric
from curvinv.pipeline import run_invariant

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
        module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
    return module


def _originals(spans):
    return [getattr(module, attr) for module, attr, _ in spans.TARGETS] + [
        Expr.__dict__["make"]
    ]


def test_targets_resolve_to_callables(spans):
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), "%s.%s" % (module.__name__, attr)


def test_install_then_uninstall_restores(spans):
    before = _originals(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _originals(spans)
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _originals(spans)))


def _span_names(spans, metric, spec_text) -> set:
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_invariant(metric, spec_text)
    finally:
        tracer.uninstall()
    return {s[1] for s in tracer.spans}


def test_pipeline_calls_every_span(spans):
    # S^2's sums are all proved reduced, so they make no Expr.make call
    names = {name for _, _, name in spans.TARGETS}
    assert _span_names(spans, sphere_metric(2), "R(+a,+b,+c,+d;+e) R(-a,-b,-c,-d;-e)") == names
    # Tangherlini D=5 leaves the basis element r**2, which is not certified
    # irreducible, in some sums' denominators: those fall back to Expr.make
    tangherlini = kerr(5).substitute("a", 0)
    assert "expr.make" in _span_names(spans, tangherlini, "R(+a,+b,+c,+d) R(-a,-b,-c,-d)")
