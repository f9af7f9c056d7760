from curvinv import pipeline, tensor
from curvinv.cli import PRESETS
from curvinv.expr import SymbolEnv
from curvinv.metrics import sphere_metric
from curvinv.tensor import Metric


def test_one_connection_per_derivative_run(monkeypatch):
    # Riemann and nabla R share the connection that _lowered_field builds.
    env = SymbolEnv(coordinates=("r", "w"))
    r = env.symbol("r")
    g = Metric(env, 2, {(0, 0): env.one(), (1, 1): r ** 4})
    calls = []
    original = tensor.christoffel

    def counting(metric):
        calls.append(metric)
        return original(metric)

    monkeypatch.setattr(tensor, "christoffel", counting)
    monkeypatch.setattr(pipeline, "christoffel", counting)
    report = pipeline.run_invariant(g, PRESETS["I_c"])
    assert calls == [g]
    assert not report.invariant.is_zero


def test_schwarzschild_ic_closed_form(schwarzschild4):
    # Karlhede, Lindstrom and Aman's 720 M^2 (r - 2M) / r^9 with mu = 2M.
    report = pipeline.run_invariant(schwarzschild4, PRESETS["I_c"])
    env = schwarzschild4.env
    r, mu = env.symbol("r"), env.symbol("mu")
    assert report.invariant == 180 * mu ** 2 * (r - mu) / r ** 9
    assert report.expression == "(-180*mu**3 + 180*mu**2*r)/(r**9)"
    assert report.P == 294
    assert report.raise_mults == 280


def test_raised_fields_cached_per_metric(monkeypatch):
    g = sphere_metric(3)
    first = pipeline.run_invariant(g, PRESETS["I_b"])
    calls = []
    original = pipeline.raise_index

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "raise_index", counting)
    second = pipeline.run_invariant(g, PRESETS["I_b"])
    assert calls == []
    assert second.raise_mults > 0
    for name in ("expression", "P", "T", "multiplier", "product_count", "raise_mults"):
        assert getattr(second, name) == getattr(first, name)
