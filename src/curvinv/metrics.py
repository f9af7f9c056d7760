"""Test-family metrics: flat space, round spheres, and the single-rotation
Kerr family in arbitrary dimension D >= 4.

Each polar angle enters these metrics only through cos**2 and
sin**2 = 1 - cos**2, so each is replaced by its cosine, x = cos(angle),
with dangle**2 = dx**2/(1 - x**2).  Every component is then a rational
function of the coordinates and parameters.  The coordinate keeps the
name ``cos(theta)`` or ``cos(chiK)``; the invariants are scalars, so they
come out in the same symbols as in the angular coordinates.
"""

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


def _polar(k: int) -> str:
    """Name of the coordinate x_k = cos(chi_k) of the polar angle chi_k."""
    return "cos(chi%d)" % k


def sphere_metric(n: int) -> Metric:
    """Unit round metric on the n-sphere, built by the nested recursion
    dOmega_n**2 = dx_n**2/(1 - x_n**2) + (1 - x_n**2) dOmega_{n-1}**2 with
    dOmega_1**2 = dchi_1**2.

    Coordinates are ordered outermost first (x_n, ..., x_2, chi_1), where
    x_k = cos(chi_k) for the polar angles; the azimuthal angle chi_1 never
    appears in a component.
    """
    if n < 1:
        raise TensorError("sphere dimension must be >= 1")
    coords = tuple(_polar(k) for k in range(n, 1, -1)) + ("chi1",)
    env = SymbolEnv(coordinates=coords)
    components = {}
    running = env.one()
    for i, x in enumerate(coords[:-1]):
        sin2 = env.one() - env.symbol(x) ** 2
        components[(i, i)] = running / sin2
        running = running * sin2
    components[(n - 1, n - 1)] = running
    return Metric(env, n, components)


def kerr(dim: int) -> Metric:
    """Single-rotation Kerr metric in D dimensions, with x = cos(theta):

        ds**2 = -dt**2 + mu/(r**(D-5) rho2) (dt + a (1 - x**2) dphi)**2
                + rho2/Delta dr**2 + rho2/(1 - x**2) dx**2
                + (r**2 + a**2)(1 - x**2) dphi**2 + r**2 x**2 dOmega_{D-4}**2

    where rho2 = r**2 + a**2 x**2 and Delta = r**2 + a**2 - mu/r**(D-5).
    Coordinates are (t, r, x, phi, chi_1, x_2, ..., x_{D-4}), with the
    sphere block's coordinates as in :func:`sphere_metric`; the block is
    absent at D=4.  With the spin a and mass mu as parameters the metric
    depends on exactly D-1 symbols: r, x, a, mu, and the D-5 polar
    coordinates x_k of the sphere block.
    """
    if dim < 4:
        raise TensorError("rotating metric needs dim >= 4")
    nchi = dim - 4
    coords = ("t", "r", "cos(theta)", "phi") + tuple(
        "chi1" if k == 1 else _polar(k) for k in range(1, nchi + 1)
    )
    env = SymbolEnv(coordinates=coords, parameters=("a", "mu"))
    r = env.symbol("r")
    a = env.symbol("a")
    mu = env.symbol("mu")
    x = env.symbol("cos(theta)")
    sin2 = env.one() - x ** 2
    rho2 = r ** 2 + a ** 2 * x ** 2
    r_power = r ** (dim - 5)
    delta = mu / (r_power * rho2)
    psi = rho2 / (r ** 2 + a ** 2 - mu / r_power)

    components = {
        (0, 0): delta - 1,
        (0, 3): delta * a * sin2,
        (1, 1): psi,
        (2, 2): rho2 / sin2,
        (3, 3): (r ** 2 + a ** 2) * sin2 + delta * a ** 2 * sin2 ** 2,
    }
    running = r ** 2 * x ** 2
    for k in range(nchi, 1, -1):
        slot = 4 + k - 1
        sin2_k = env.one() - env.symbol(_polar(k)) ** 2
        components[(slot, slot)] = running / sin2_k
        running = running * sin2_k
    if nchi:
        components[(4, 4)] = running
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
