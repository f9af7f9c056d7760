"""Reference values for the benchmark's correctness checks, computed without
curvinv.

Each workload's invariant is compared with an expression obtained here from
plain sympy or numpy:

* Kerr D=4 I_b: the closed form 12 mu^3 Re((r + i a c)^9) / rho^18 with
  c = cos(theta) and rho^2 = r^2 + a^2 c^2.  It follows from the type-D
  vacuum scalar Psi_2 = -M/(r - i a c)^3 with mu = 2M, and gives
  96 M^3 / r^9 at a = 0.
* Round S^n I_2: a numpy einsum over R^ab_cd = d^a_c d^b_d - d^a_d d^b_c in
  an orthonormal frame, which must also equal -2 n (n - 1).
* Schwarzschild-Tangherlini (Kerr at a = 0) I_c: nabla_e R_abcd nabla^e R^abcd
  computed from the metric in plain sympy rational-function arithmetic, in
  coordinates (t, r, x_n, ..., x_2, phi) with x_k = cos(chi_k), so that every
  component is rational.  At D = 4 it reproduces Karlhede, Lindstrom & Aman's
  720 M^2 (r - 2M) / r^9 with mu = 2M.

Run ``python3 perfbench/reference.py`` to print these derivations for a range
of dimensions and to assert the published D = 4 forms.
"""

from __future__ import annotations

import random

import numpy as np
import sympy as sp
from sympy.polys.fields import field

MU, R, C = sp.symbols("mu r c")
THETA = sp.Symbol("theta")
M = sp.Symbol("M")


def kerr4_Ib(a) -> sp.Expr:
    """I_b of Kerr D=4 as a function of mu, r and c = cos(theta)."""
    a = sp.Rational(a)
    # Re((r + i a c)^9) keeps the even powers of (i a c), with sign i^k.
    real_part = sum(
        sp.binomial(9, k) * R ** (9 - k) * (a * C) ** k * (-1) ** (k // 2)
        for k in range(0, 10, 2)
    )
    rho2 = R ** 2 + a ** 2 * C ** 2
    return 12 * MU ** 3 * real_part / rho2 ** 9


def sphere_I2(n: int) -> int:
    """I_2 = R^ab_cd R_a^efg R_ef^b_h R_gh^cd on the unit n-sphere, by einsum.

    The slot pattern follows the I_2 spec used by the benchmark:
    R(+a,+b,+c,+d) R(-a,-e,-f,-g) R(+e,+f,-b,-h) R(+g,+h,-c,-d).
    """
    delta = np.eye(n, dtype=np.int64)
    riem = np.einsum("ac,bd->abcd", delta, delta) - np.einsum("ad,bc->abcd", delta, delta)
    value = int(np.einsum("abcd,aefg,efbh,ghcd->", riem, riem, riem, riem))
    if value != -2 * n * (n - 1):
        raise AssertionError("einsum I_2 on S^%d gave %d, not %d" % (n, value, -2 * n * (n - 1)))
    return value


def tangherlini_Ic(dim: int) -> sp.Expr:
    """nabla_e R_abcd nabla^e R^abcd of the D-dimensional Schwarzschild-
    Tangherlini metric -f dt^2 + dr^2/f + r^2 dOmega_{D-2}^2 with
    f = 1 - mu / r^(D-3), by direct summation over all index values."""
    n = dim - 2
    names = ["r", "mu"] + ["x%d" % k for k in range(n, 1, -1)]
    K, *gens = field(",".join(names), sp.QQ)
    r, mu, xs = gens[0], gens[1], gens[2:]
    coords = [None, r] + list(xs) + [None]  # t and phi appear in no component
    f = 1 - mu / r ** (dim - 3)
    g = [-f, 1 / f]
    warp = r ** 2
    for x in xs:
        g.append(warp / (1 - x ** 2))
        warp = warp * (1 - x ** 2)
    g.append(warp)
    ginv = [1 / v for v in g]
    N = len(g)
    zero = K.zero

    def d(v, c):
        return zero if coords[c] is None or v == 0 else v.diff(coords[c])

    dg = {(a, c): d(g[a], c) for a in range(N) for c in range(N)}
    gamma = {}
    for a in range(N):
        for b in range(N):
            for c in range(N):
                v = zero
                if a == c:
                    v += dg[a, b]
                if a == b:
                    v += dg[a, c]
                if b == c:
                    v -= dg[b, a]
                if v != 0:
                    gamma[a, b, c] = ginv[a] * v / 2

    def gam(a, b, c):
        return gamma.get((a, b, c), zero)

    riem = {}
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for e in range(c + 1, N):
                    v = d(gam(a, e, b), c) - d(gam(a, c, b), e)
                    for k in range(N):
                        v += gam(a, c, k) * gam(k, e, b) - gam(a, e, k) * gam(k, c, b)
                    v = g[a] * v
                    if v != 0:
                        riem[a, b, c, e] = v
                        riem[a, b, e, c] = -v
    total = zero
    for idx in np.ndindex(N, N, N, N):
        base = riem.get(idx, zero)
        for e in range(N):
            v = d(base, e)
            for s in range(4):
                for k in range(N):
                    w = gamma.get((k, e, idx[s]))
                    if w is None:
                        continue
                    key = list(idx)
                    key[s] = k
                    rv = riem.get(tuple(key))
                    if rv is not None:
                        v -= w * rv
            if v != 0:
                weight = ginv[idx[0]] * ginv[idx[1]] * ginv[idx[2]] * ginv[idx[3]] * ginv[e]
                total += v ** 2 * weight
    return total.as_expr()


def parse_invariant(text: str) -> sp.Expr:
    """Read curvinv's printed invariant as a sympy expression in mu, r and
    c = cos(theta)."""
    local = {"mu": MU, "r": R, "theta": THETA}
    expr = sp.parse_expr(text, local_dict=local)
    return expr.subs(sp.cos(THETA), C)


def random_points(rng: random.Random, count: int) -> list:
    """Exact rational points with r > 10 and |c| < 1, where no denominator
    of the checked invariants vanishes."""
    return [
        {
            R: 10 + sp.Rational(rng.randint(1, 99), rng.randint(1, 9)),
            MU: sp.Rational(rng.randint(1, 40), rng.randint(1, 9)),
            C: sp.Rational(rng.randint(-9, 9), 10),
        }
        for _ in range(count)
    ]


def agrees(text: str, expected, points: list) -> bool:
    """Exact symbolic equality, then equality at the given rational points."""
    got = parse_invariant(text)
    expected = sp.sympify(expected)
    if sp.cancel(got - expected) != 0:
        return False
    return all(got.subs(p) == expected.subs(p) for p in points)


def main() -> int:
    r, mu = R, MU
    for dim in (4, 5, 6):
        value = sp.factor(tangherlini_Ic(dim))
        print("Tangherlini D=%d I_c = %s" % (dim, value))
        if dim == 4:
            karlhede = 720 * M ** 2 * (r - 2 * M) / r ** 9
            if sp.cancel(value.subs(mu, 2 * M) - karlhede) != 0:
                raise AssertionError("D=4 I_c differs from 720 M^2 (r - 2M)/r^9")
            print("  matches 720 M^2 (r - 2M)/r^9 with mu = 2M")
    for n in (3, 4, 5, 6):
        print("S^%d I_2 = %d" % (n, sphere_I2(n)))
    ib = kerr4_Ib(1)
    print("Kerr D=4 I_b at a=1 = %s" % sp.factor(ib))
    at_a0 = sp.cancel(kerr4_Ib(0).subs(mu, 2 * M))
    if sp.cancel(at_a0 - 96 * M ** 3 / r ** 9) != 0:
        raise AssertionError("Kerr I_b at a=0 differs from 96 M^3/r^9")
    print("  at a=0: %s" % at_a0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
