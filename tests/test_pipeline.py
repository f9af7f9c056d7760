from curvinv import pipeline, tensor
from curvinv.cli import PRESETS
from curvinv.expr import SymbolEnv
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
