"""Test-family metrics: flat space, round spheres, and the single-rotation
Kerr family in arbitrary dimension D >= 4."""

from __future__ import annotations

from .expr import SymbolEnv
from .tensor import Metric, TensorError


def flat(dim: int) -> Metric:
    """Minkowski metric diag(-1, 1, ..., 1)."""
    if dim < 2:
        raise TensorError("flat metric needs dim >= 2")
    coords = ("t",) + tuple("x%d" % i for i in range(1, dim))
    env = SymbolEnv(coordinates=coords)
    components = {(0, 0): env.integer(-1)}
    for i in range(1, dim):
        components[(i, i)] = env.one()
    return Metric(env, dim, components)


def sphere_metric(n: int) -> Metric:
    """Unit round metric on the n-sphere, built by the nested-sine recursion.

    Coordinates are ordered outermost first (chi_n, ..., chi_1), so the
    line element reads dchi_n**2 + sin(chi_n)**2 * (dchi_{n-1}**2 + ...);
    the innermost azimuthal angle chi_1 never appears in a component.
    """
    if n < 1:
        raise TensorError("sphere dimension must be >= 1")
    coords = tuple("chi%d" % k for k in range(n, 0, -1))
    trig = frozenset(coords[:-1])
    env = SymbolEnv(coordinates=coords, trig_pairs=trig)
    components = {}
    running = env.one()
    for i, x in enumerate(coords):
        components[(i, i)] = running
        if i < n - 1:
            running = running * (env.one() - env.cos(x) ** 2)
    return Metric(env, n, components)


def kerr(dim: int) -> Metric:
    """Single-rotation Kerr metric in D dimensions.

    Coordinates are (t, r, theta, phi, chi_1, ..., chi_{D-4}); the sphere
    block r**2 cos(theta)**2 dOmega**2 is absent at D=4.  With the spin a
    and mass mu as parameters the metric depends on exactly D-1 symbols:
    r, theta, a, mu, and the D-5 polar angles of the sphere block (the
    azimuthal chi_1 never appears explicitly).
    """
    if dim < 4:
        raise TensorError("rotating metric needs dim >= 4")
    nchi = dim - 4
    coords = ("t", "r", "theta", "phi") + tuple("chi%d" % k for k in range(1, nchi + 1))
    trig = {"theta"} | {"chi%d" % k for k in range(2, nchi + 1)}
    env = SymbolEnv(
        coordinates=coords,
        parameters=("a", "mu"),
        trig_pairs=frozenset(trig),
    )
    r = env.symbol("r")
    a = env.symbol("a")
    mu = env.symbol("mu")
    cos_theta = env.cos("theta")
    sin2 = env.one() - cos_theta ** 2
    rho2 = r ** 2 + a ** 2 * cos_theta ** 2
    r_power = r ** (dim - 5)
    delta = mu / (r_power * rho2)
    psi = rho2 / (r ** 2 + a ** 2 - mu / r_power)

    components = {
        (0, 0): delta - 1,
        (0, 3): delta * a * sin2,
        (1, 1): psi,
        (2, 2): rho2,
        (3, 3): (r ** 2 + a ** 2) * sin2 + delta * a ** 2 * sin2 ** 2,
    }
    block = r ** 2 * cos_theta ** 2
    running = env.one()
    for k in range(nchi, 0, -1):
        slot = 4 + k - 1
        components[(slot, slot)] = block * running
        if k >= 2:
            running = running * (env.one() - env.cos("chi%d" % k) ** 2)
    return Metric(env, dim, components)


METRIC_BUILDERS = {
    "flat": flat,
    "sphere": sphere_metric,
    "kerr": kerr,
}


def metric_by_name(name: str, dim: int) -> Metric:
    try:
        builder = METRIC_BUILDERS[name]
    except KeyError:
        raise TensorError(
            "unknown metric %r (choose from %s)" % (name, sorted(METRIC_BUILDERS))
        ) from None
    return builder(dim)
