import math
import signal
import time
from contextlib import contextmanager

import pytest

from curvinv.expr import SymbolEnv
from curvinv.metrics import kerr, sphere_metric
from curvinv.pipeline import _field
from curvinv.tensor import Metric


@pytest.fixture(scope="session")
def s2():
    return sphere_metric(2)


@pytest.fixture(scope="session")
def s3():
    return sphere_metric(3)


@pytest.fixture(scope="session")
def kerr4():
    return kerr(4)


@pytest.fixture(scope="session")
def schwarzschild4():
    """Kerr D=4 at a=0: a diagonal metric whose nabla R is nonzero."""
    return kerr(4).substitute("a", 0)


@pytest.fixture(scope="session")
def kerr4_riemann(kerr4):
    """Lowered Riemann tensor of Kerr D=4, built once for every test that
    only reads it; the same object the pipeline caches for ``kerr4``."""
    return _field(kerr4, 0)


@pytest.fixture(scope="session")
def quartic2d():
    """Curved 2D metric diag(1, r**4): nonzero Riemann with nonzero
    covariant derivatives, cheap enough for dense oracles."""
    env = SymbolEnv(coordinates=("r", "w"))
    r = env.symbol("r")
    return Metric(env, 2, {(0, 0): env.one(), (1, 1): r ** 4})


@pytest.fixture(scope="session")
def offdiag3d():
    """-dt**2 + 2 r dt dw + dr**2 + r**2 dw**2: nonzero Riemann and an
    off-diagonal inverse metric, so raised components sum several products;
    cheap enough for the every-key oracles."""
    env = SymbolEnv(coordinates=("t", "r", "w"))
    r, one = env.symbol("r"), env.one()
    return Metric(env, 3, {(0, 0): -one, (0, 2): r, (1, 1): one, (2, 2): r ** 2})


@pytest.fixture(scope="session")
def warped3d():
    """v w du**2 + 2 u v du dw + u w dv**2 + u v dw**2: components that
    depend on two coordinates, so mixed second derivatives of the metric
    reach every term of the lowered Riemann tensor; cheap enough for the
    dense oracles."""
    env = SymbolEnv(coordinates=("u", "v", "w"))
    u, v, w = env.symbol("u"), env.symbol("v"), env.symbol("w")
    return Metric(env, 3, {(0, 0): v * w, (0, 2): u * v, (1, 1): u * w, (2, 2): u * v})


@pytest.fixture(scope="session")
def s3_euler():
    """Unit S^3 in Euler angles, (1/4)(dtheta**2 + dphi**2 + dpsi**2
    + 2 cos(theta) dphi dpsi): off-diagonal, with a trig coordinate, and
    of constant curvature 1, so R_abcd = g_ac g_bd - g_ad g_bc."""
    env = SymbolEnv(coordinates=("theta", "phi", "psi"), trig_pairs=frozenset({"theta"}))
    quarter = env.one() / env.integer(4)
    components = {(0, 0): quarter, (1, 1): quarter, (2, 2): quarter}
    components[(1, 2)] = quarter * env.cos("theta")
    return Metric(env, 3, components)


@pytest.fixture(scope="session")
def trig_env():
    return SymbolEnv(
        coordinates=("r", "theta"),
        parameters=("a", "mu"),
        trig_pairs=frozenset({"theta"}),
    )


# Each phase of a test (set-up, call, tear-down) fails, rather than hangs,
# once it has run this many seconds; the slowest test takes a few.
TEST_TIME_LIMIT = 60


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block once it has run ``seconds`` seconds,
    and again every second after that until the block is left, so code
    that catches the first one (hypothesis replays a failing example)
    cannot run on.

    Nested inside another deadline, the earlier of the two applies, and on
    leaving the block the outer one is armed again with what remains of
    it.  There is one SIGALRM timer per process, so this is how the
    per-test limit and the ``deadline`` fixture share it.
    """

    def expire(signum, frame):
        signal.alarm(1)
        raise TimeoutError("still running after %d s" % seconds)

    began = time.monotonic()
    previous = signal.signal(signal.SIGALRM, expire)
    outer = signal.alarm(seconds)
    if outer and outer < seconds:
        signal.signal(signal.SIGALRM, previous)
        signal.alarm(outer)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.alarm(max(1, math.ceil(outer - (time.monotonic() - began))))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _deadline(TEST_TIME_LIMIT):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _deadline(TEST_TIME_LIMIT):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _deadline(TEST_TIME_LIMIT):
        return (yield)


@pytest.fixture
def deadline():
    """``with deadline(n):`` raises TimeoutError in a block that outlives n
    seconds."""
    return _deadline
