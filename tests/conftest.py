import os

import pytest

from curvinv.expr import SymbolEnv
from curvinv.metrics import KerrParams, flat, kerr, sphere_metric
from curvinv.tensor import Metric, riemann_lowered


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CURVINV_STRETCH"):
        return
    skip = pytest.mark.skip(reason="stretch check; set CURVINV_STRETCH=1 to run")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def s2():
    return sphere_metric(2)


@pytest.fixture(scope="session")
def s3():
    return sphere_metric(3)


@pytest.fixture(scope="session")
def kerr4():
    return kerr(KerrParams(4))


@pytest.fixture(scope="session")
def kerr4_riemann(kerr4):
    """Lowered Riemann tensor of Kerr D=4, built once for every test that
    only reads it."""
    return riemann_lowered(kerr4)


@pytest.fixture(scope="session")
def quartic2d():
    """Curved 2D metric diag(1, r**4): nonzero Riemann with nonzero
    covariant derivatives, cheap enough for dense oracles."""
    env = SymbolEnv(coordinates=("r", "w"))
    r = env.symbol("r")
    return Metric(env, 2, {(0, 0): env.one(), (1, 1): r ** 4})


@pytest.fixture(scope="session")
def trig_env():
    return SymbolEnv(
        coordinates=("r", "theta"),
        parameters=("a", "mu"),
        trig_pairs=frozenset({"theta"}),
    )
