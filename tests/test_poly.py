"""curvinv.poly against sympy's sparse polynomial rings as the reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Symbol
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grevlex, lex
from sympy.polys.rings import ring

from curvinv import poly
from curvinv.expr import Expr
from curvinv.poly import HeuristicGCDFailed, cofactors, poly_ring


def _sympy_ring(n, order):
    return ring([Symbol("x%d" % i) for i in range(n)], ZZ, order)[0]


def _terms(n, max_terms=5):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), st.integers(-9, 9), max_size=max_terms
    )


def _same(ours, theirs):
    return ours == dict(theirs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arithmetic_matches_sympy(data):
    n = data.draw(st.integers(0, 5), label="ngens")
    R = poly_ring(n)
    S = _sympy_ring(n, grevlex)
    f, g = (data.draw(_terms(n)) for _ in range(2))
    pf, pg = R.from_dict(f), R.from_dict(g)
    sf, sg = S.from_dict(f), S.from_dict(g)
    k = data.draw(st.integers(-5, 5), label="scale")

    assert _same(pf + pg, sf + sg)
    assert _same(pf - pg, sf - sg)
    assert _same(pf * pg, sf * sg)
    assert _same(-pf, -sf)
    assert _same(pf * k, sf * k) and _same(k * pf, k * sf)
    assert _same(pf + k, sf + k) and _same(k - pf, k - sf)
    e = data.draw(st.integers(0 if pf else 1, 4), label="exponent")
    assert _same(pf ** e, sf ** e)
    for i in range(n):
        assert _same(pf.diff(i), sf.diff(S.gens[i]))
        assert pf.degree(i) == sf.degree(S.gens[i])
    assert pf.degrees() == sf.degrees()
    assert pf.terms() == sf.terms()
    assert pf.monoms() == sf.monoms()
    assert pf.LC == sf.LC
    assert (pf == pg) == (sf == sg)
    if pf == pg:
        assert hash(pf) == hash(pg)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cofactors_match_sympy_up_to_sign(data):
    n = data.draw(st.integers(0, 5), label="ngens")
    R = poly_ring(n)
    S = _sympy_ring(n, lex)
    a, b, c = (R.from_dict(data.draw(_terms(n, 4))) for _ in range(3))
    f, g = a * c, b * c
    ours = cofactors(f, g)
    theirs = S.from_dict(f).cofactors(S.from_dict(g))
    assert all(p.ring is R for p in ours)
    if _same(ours[0], -theirs[0]) and ours[0]:
        theirs = tuple(-p for p in theirs)
    assert all(_same(p, q) for p, q in zip(ours, theirs))
    h, cff, cfg = ours
    assert h * cff == f and h * cfg == g


def _random_poly(rng, n, terms):
    return {
        tuple(rng.randint(0, 3) for _ in range(n)): rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5])
        for _ in range(terms)
    }


def _exquo_against_sympy(n, f, g):
    """``poly._exquo(f, g)`` and whether sympy's lex ``div`` leaves a
    remainder; asserts the quotients agree when it does not."""
    S = _sympy_ring(n, lex)
    quotient, remainder = S.from_dict(f).div(S.from_dict(g))
    ours = poly._exquo(f, g)
    assert (ours is None) == bool(remainder)
    if ours is not None:
        assert _same(ours, quotient)
    return ours


def test_exact_division_returns_none_exactly_when_sympy_leaves_a_remainder():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        R = poly_ring(n)
        g = R.from_dict(_random_poly(rng, n, rng.randint(1, 3)))
        q = R.from_dict(_random_poly(rng, n, rng.randint(1, 3)))
        if not g or not q:
            continue
        f = q * g
        kind = rng.choice(["exact", "perturbed", "unrelated"])
        if kind == "perturbed":
            f = f + R.from_dict(_random_poly(rng, n, 1))
        elif kind == "unrelated":
            f = R.from_dict(_random_poly(rng, n, rng.randint(1, 4)))
        if not f:
            continue
        outcomes.add(_exquo_against_sympy(n, dict(f), dict(g)) is None)
    assert outcomes == {True, False}


def test_divisor_leading_coefficient_not_dividing():
    x, y = poly_ring(2).gens
    # The leading monomials divide, the coefficients 3 and 2 do not.
    assert _exquo_against_sympy(2, dict(3 * x * y + 1), dict(2 * x + y)) is None
    # Divisible leading term first, then a leading coefficient 1 left over.
    assert _exquo_against_sympy(2, dict((2 * x + y) * (x + 1) + y), dict(2 * x + y)) is None
    assert _exquo_against_sympy(2, dict((2 * x + y) * (3 * x + 1)), dict(2 * x + y)) == dict(
        3 * x + 1
    )


def test_gcd_failure_is_a_symbolic_error(monkeypatch):
    x, y = poly_ring(2).gens
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 0)
    with pytest.raises(HeuristicGCDFailed):
        cofactors((x + y) * (x - 1), (x + y) * (y + 2))
    # the single-term shortcut needs no evaluation point
    assert cofactors(2 * x * y, x + y)[0] == poly_ring(2).one


def test_gcd_runs_over_only_the_variables_present(trig_env, monkeypatch):
    # cofactors hands its GCD step both polynomials over exactly the
    # variables either mentions: heugcd gets their count, and the
    # single-term shortcut gets monomials of that length.
    counts = []
    heugcd, gcd_monom = poly._heugcd, poly._gcd_monom

    def recording_heugcd(f, g, n):
        assert all(len(m) == n for m in (*f, *g))
        counts.append(n)
        return heugcd(f, g, n)

    def recording_gcd_monom(f, g):
        (m,) = f
        assert all(len(mg) == len(m) for mg in g)
        counts.append(len(m))
        return gcd_monom(f, g)

    monkeypatch.setattr(poly, "_heugcd", recording_heugcd)
    monkeypatch.setattr(poly, "_gcd_monom", recording_gcd_monom)
    R = trig_env.ring
    a, mu, r, s, c = (
        R.gens[trig_env.gen_index(name)] for name in ("a", "mu", "r", "sin(theta)", "cos(theta)")
    )
    pairs = [
        (R.ground_new(6), R.ground_new(-4), ()),
        (r + 1, c ** 2 - 1, ("r", "cos(theta)")),
        (r ** 2 - 1, r - 1, ("r",)),
        ((a - c) * (a * c + 1), a * c + 1, ("a", "cos(theta)")),
        (mu * s, a * s + c, ("a", "mu", "sin(theta)", "cos(theta)")),
    ]
    for p, q, names in pairs:
        counts.clear()
        cofactors(p, q)
        # heugcd recurses on one variable fewer each time
        assert counts[0] == len(names)
    # make cancels after clearing the sine: mu*s*(c - a*s) over c**2 - a**2*(1 - c**2)
    counts.clear()
    Expr.make(trig_env, mu * s, a * s + c)
    assert counts[0] == 4
