import pytest

from curvinv import pipeline, tensor
from curvinv.cli import PRESETS
from curvinv.expr import SymbolEnv
from curvinv.metrics import KerrParams, kerr, sphere_metric
from curvinv.parallel import RunConfig
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


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_tangherlini_kretschmann_closed_form(dim):
    # (D-1)(D-2)^2(D-3) mu^2 / r^(2(D-1)) for f = 1 - mu/r^(D-3)
    # (Tangherlini 1963; e.g. Emparan and Reall, Living Rev. Rel. 11, 6, 2008)
    g = kerr(KerrParams(dim)).substitute("a", 0)
    env = g.env
    r, mu = env.symbol("r"), env.symbol("mu")
    expected = (dim - 1) * (dim - 2) ** 2 * (dim - 3) * mu ** 2 / r ** (2 * (dim - 1))
    report = pipeline.run_invariant(g, PRESETS["I_a"])
    assert report.invariant == expected


def test_schwarzschild_i1(schwarzschild4, deadline):
    with deadline(15):
        one = pipeline.run_invariant(schwarzschild4, PRESETS["I_1"])
        two = pipeline.run_invariant(schwarzschild4, PRESETS["I_1"], RunConfig(workers=2))
    assert one.expression == two.expression
    assert (one.product_count, one.P, one.T) == (4880, 6224, 5)
    # Four factors of nabla nabla R, each of length dimension -4 with mu and
    # r lengths: every numerator term is 16 degrees below the denominator.
    env = schwarzschild4.env
    mu, r = env.gen_index("mu"), env.gen_index("r")
    (den_degree,) = {m[mu] + m[r] for m in one.invariant.den.monoms()}
    assert {m[mu] + m[r] - den_degree for m in one.invariant.num.monoms()} == {-16}


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
