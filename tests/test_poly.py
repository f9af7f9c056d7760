"""curvinv.poly against sympy's sparse polynomial rings as the reference."""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Symbol
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grevlex, lex
from sympy.polys.rings import ring

from curvinv import poly
from curvinv.expr import Expr
from curvinv.poly import MAX_EXPONENT, HeuristicGCDFailed, SymbolicError, cofactors, poly_ring


def _sympy_ring(n, order):
    return ring([Symbol("x%d" % i) for i in range(n)], ZZ, order)[0]


def _terms(n, max_terms=5, exponents=st.integers(0, 3)):
    return st.dictionaries(st.tuples(*[exponents] * n), st.integers(-9, 9), max_size=max_terms)


def _same(ours, theirs):
    return dict(ours.terms()) == dict(theirs)


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
    assert pf.terms() == sf.terms()
    assert [m for m, _ in pf.terms()] == sf.monoms()
    assert pf.LC == sf.LC
    assert (pf == pg) == (sf == sg)
    if pf == pg:
        assert hash(pf) == hash(pg)


def _scaled(R, terms, J):
    """The polynomial with each exponent of variable i multiplied by J[i]."""
    out = {}
    for m, c in terms.items():
        key = tuple(e * j for e, j in zip(m, J))
        out[key] = out.get(key, 0) + c
    return R.from_dict(out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cofactors_match_sympy_up_to_sign(data):
    n = data.draw(st.integers(0, 5), label="ngens")
    R = poly_ring(n)
    S = _sympy_ring(n, lex)
    # J = 0 leaves a variable unmentioned; J > 1 gives heugcd deflated fields
    J = data.draw(st.tuples(*[st.sampled_from([0, 1, 1, 2, 3])] * n), label="J")
    a, b, c = (_scaled(R, data.draw(_terms(n, 4)), J) for _ in range(3))
    f, g = a * c, b * c
    ours = cofactors(f, g)
    theirs = S.from_dict(dict(f.terms())).cofactors(S.from_dict(dict(g.terms())))
    assert all(p.ring is R for p in ours)
    if _same(ours[0], -theirs[0]) and ours[0]:
        theirs = tuple(-p for p in theirs)
    assert all(_same(p, q) for p, q in zip(ours, theirs))
    h, cff, cfg = ours
    assert h * cff == f and h * cfg == g


# Exponents that reach the guard bit of a field, and small ones.
_wide_exponents = st.one_of(
    st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT), st.integers(0, MAX_EXPONENT)
)


def _fits(sympy_poly):
    return all(e <= MAX_EXPONENT for m in sympy_poly.itermonoms() for e in m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wide_exponents_match_sympy(data):
    # Exponents up to the largest a field holds; a result that would need
    # a larger one raises instead of carrying into the next field.
    n = data.draw(st.integers(1, 5), label="ngens")
    R = poly_ring(n)
    S = _sympy_ring(n, grevlex)
    f, g = (data.draw(_terms(n, 4, _wide_exponents)) for _ in range(2))
    pf, pg = R.from_dict(f), R.from_dict(g)
    sf, sg = S.from_dict(f), S.from_dict(g)

    assert _same(pf + pg, sf + sg)
    assert _same(pf - pg, sf - sg)
    for ours, theirs in ((lambda: pf * pg, sf * sg), (lambda: pg * pf, sg * sf)):
        if _fits(theirs):
            assert _same(ours(), theirs)
        else:
            with pytest.raises(SymbolicError):
                ours()
    e = data.draw(st.integers(0 if pf else 1, 3), label="exponent")
    if _fits(sf ** e):
        assert _same(pf ** e, sf ** e)
    else:
        with pytest.raises(SymbolicError):
            pf ** e
    for i in range(n):
        assert _same(pf.diff(i), sf.diff(S.gens[i]))
    assert pf.terms() == sf.terms()
    assert pf.LC == sf.LC


def test_fields_next_to_the_guard_bit():
    R = poly_ring(3)
    x, y, z = R.gens
    top = MAX_EXPONENT
    # products that fill a field exactly, beside full and empty fields
    assert (x ** (top - 1) * y ** top * x).terms() == [((top, top, 0), 1)]
    assert (y ** top * z ** (top - 5) * (x + z ** 5)).terms() == [
        ((0, top, top), 1), ((1, top, top - 5), 1)
    ]
    assert (x ** top).diff(0).terms() == [((top - 1, 0, 0), top)]
    # exact quotients that empty a full field, or leave one full
    full = R.from_dict({(top, top, top): 1})
    for divisor, quotient in (
        (x ** top, (0, top, top)), (y ** top, (top, 0, top)), (z ** top, (top, top, 0)),
        (z, (top, top, top - 1)), (full, (0, 0, 0)),
    ):
        assert R.new(poly._exquo(full, divisor, R.guard)).terms() == [(quotient, 1)]
    # a field that would go negative beside a full one does not borrow from it
    assert poly._exquo(x ** top, y, R.guard) is None
    assert poly._exquo(x ** top * z ** top, y * z, R.guard) is None
    assert poly._exquo(y ** top, y ** top * z, R.guard) is None
    # the single-term shortcut's field-wise minimum
    h, cff, cfg = cofactors(x ** top * y, x * y ** top + z ** top)
    assert (h, cff, cfg) == (R.one, x ** top * y, x * y ** top + z ** top)
    h, cff, cfg = cofactors(x ** top * y * z ** 3, x * y ** top * z ** top + x ** 2 * z ** 2)
    assert (h, cff, cfg) == (x * z ** 2, x ** (top - 1) * y * z, y ** top * z ** (top - 2) + x)
    # heugcd interpolating at full fields
    shared = x ** top + y ** (top - 1) * z
    h, cff, cfg = cofactors(shared * y, shared * (z + 1))
    assert (h, cff, cfg) == (shared, y, z + 1)


def test_field_overflow_raises(polar_env):
    R = poly_ring(2)
    x, y = R.gens
    top = MAX_EXPONENT
    with pytest.raises(SymbolicError):
        x ** top * x
    with pytest.raises(SymbolicError):
        (x ** top + y) * (x + y ** top)
    with pytest.raises(SymbolicError):
        (x * y) ** (top + 1)
    with pytest.raises(SymbolicError):
        R.from_dict({(top + 1, 0): 1})
    # inside Expr's operators, whose raw products Expr.make then cancels
    c = polar_env.symbol("cos(theta)")
    with pytest.raises(SymbolicError):
        c ** (top + 1)
    with pytest.raises(SymbolicError):
        c ** top * c
    with pytest.raises(SymbolicError):
        c ** top / (1 / (c + 1))
    # the largest exponents themselves are fine
    T = polar_env.ring
    x = T.gens[polar_env.gen_index("cos(theta)")]
    assert Expr.make(polar_env, x ** top, x * (x + 1)).num == x ** (top - 1)
    assert (c ** top / c).num == x ** (top - 1)


def test_products_of_cached_supports_still_check_the_guard_bits():
    R = poly_ring(2)
    x, y = R.gens
    top = MAX_EXPONENT
    half = x ** (top // 2) * x  # a product, whose support __mul__ sets
    wide = half + x + y  # x's field in its OR, 2**14 + 1, exceeds its degree
    assert poly._support(wide) == wide._support == R.monomial((top // 2 + 2, 1))
    assert half._support == R.monomial((top // 2 + 1, 0))
    with pytest.raises(SymbolicError):
        half * half
    with pytest.raises(SymbolicError):
        wide * half
    with pytest.raises(SymbolicError):
        (half * y) * (x ** (top // 2 - 1) * x * x)
    # supports that reach a guard bit together, over a product that fits
    product = x ** (top // 2) * wide
    assert product.terms() == [((top, 0), 1), ((top // 2 + 1, 0), 1), ((top // 2, 1), 1)]
    assert product._support == R.monomial((top, 1))


def test_a_product_with_one_returns_the_other_operand():
    R = poly_ring(2)
    x, y = R.gens
    p = x * y + 3
    terms = dict(p)
    for product in (p * 1, 1 * p, p * R.one, R.one * p):
        assert product is p
    assert dict(p * 2) == {m: 2 * c for m, c in terms.items()}
    assert dict(p) == terms


def _random_poly(rng, n, terms):
    return {
        tuple(rng.randint(0, 3) for _ in range(n)): rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5])
        for _ in range(terms)
    }


def _exquo_against_sympy(f, g):
    """``poly._exquo(f, g)`` and whether sympy's lex ``div`` leaves a
    remainder; asserts the quotients agree when it does not."""
    R = f.ring
    S = _sympy_ring(R.ngens, lex)
    quotient, remainder = S.from_dict(dict(f.terms())).div(S.from_dict(dict(g.terms())))
    ours = poly._exquo(f, g, R.guard)
    assert (ours is None) == bool(remainder)
    if ours is not None:
        ours = R.new(ours)
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
        outcomes.add(_exquo_against_sympy(f, g) is None)
    assert outcomes == {True, False}


def test_divisor_leading_coefficient_not_dividing():
    x, y = poly_ring(2).gens
    # The leading monomials divide, the coefficients 3 and 2 do not.
    assert _exquo_against_sympy(3 * x * y + 1, 2 * x + y) is None
    # Divisible leading term first, then a leading coefficient 1 left over.
    assert _exquo_against_sympy((2 * x + y) * (x + 1) + y, 2 * x + y) is None
    assert _exquo_against_sympy((2 * x + y) * (3 * x + 1), 2 * x + y) == 3 * x + 1


def test_remainder_past_the_field_is_not_exact():
    # x**k / (x - y**10) leaves the remainder y**(10 k); past MAX_EXPONENT
    # that is no exact division, and the division stops there.
    R = poly_ring(2)
    x, y = R.gens
    k = MAX_EXPONENT // 10 + 1
    assert poly._exquo(x ** k, x - y ** 10, R.guard) is None
    # here the term past the field, x*y**(10 k), still leads with x
    assert poly._exquo(x ** (k + 1), x - y ** 10, R.guard) is None
    assert _exquo_against_sympy(x ** 3, x - y ** 10) is None


def test_interpolation_past_the_field_raises(monkeypatch):
    # Unreachable with 15-bit exponents (a digit past the field needs a
    # coefficient of more than MAX_EXPONENT base-x digits), so the bound is
    # lowered: the degree-2 candidate no longer fits.
    x, y = poly_ring(2).gens
    monkeypatch.setattr(poly, "MAX_EXPONENT", 1)
    with pytest.raises(SymbolicError):
        cofactors((x ** 2 + y) * (x - 1), (x ** 2 + y) * (x + 2))


def test_gcd_failure_is_a_symbolic_error(monkeypatch):
    x, y = poly_ring(2).gens
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 0)
    with pytest.raises(HeuristicGCDFailed):
        cofactors((x + y) * (x - 1), (x + y) * (y + 2))
    # the single-term shortcut needs no evaluation point
    assert cofactors(2 * x * y, x + y)[0] == poly_ring(2).one


def test_gcd_runs_over_only_the_variables_present(polar_env, monkeypatch):
    # cofactors hands its GCD step the fields either polynomial uses, most
    # significant first: heugcd recurses over exactly those, and the
    # single-term shortcut sees monomials in those fields alone.
    R = polar_env.ring
    seen = []
    heugcd, gcd_monom = poly._heugcd, poly._gcd_monom

    def used(*polys):
        return [s for s, mask in zip(R.shifts, R.masks) if any(m & mask for p in polys for m in p)]

    def recording_heugcd(f, g, fields, guard):
        shifts = [s for s, _ in fields]
        # deeper calls see the fields below, of which an image may lose some
        assert set(used(f, g)) <= set(shifts)
        seen.append(shifts)
        return heugcd(f, g, fields, guard)

    def recording_gcd_monom(f, g, guard):
        seen.append(used(f, g))
        return gcd_monom(f, g, guard)

    monkeypatch.setattr(poly, "_heugcd", recording_heugcd)
    monkeypatch.setattr(poly, "_gcd_monom", recording_gcd_monom)
    a, mu, r, c = (R.gens[polar_env.gen_index(name)] for name in ("a", "mu", "r", "cos(theta)"))
    pairs = [
        (R.ground_new(6), R.ground_new(-4), ()),
        (r + 1, c ** 2 - 1, ("r", "cos(theta)")),
        (r ** 2 - 1, r - 1, ("r",)),
        ((a - c) * (a * c + 1), a * c + 1, ("a", "cos(theta)")),
        (mu * c, a * r + c, ("a", "mu", "r", "cos(theta)")),
    ]
    for p, q, names in pairs:
        seen.clear()
        cofactors(p, q)
        assert seen[0] == [R.shifts[polar_env.gen_index(name)] for name in names]
    # make's GCD runs over the generators either side mentions: a, mu and
    # cos(theta), not r
    seen.clear()
    Expr.make(polar_env, mu * (a * c + 1), a ** 2 * c ** 2 - 1)
    assert seen[0] == [R.shifts[polar_env.gen_index(name)] for name in ("a", "mu", "cos(theta)")]


def test_only_poly_reads_the_monomial_layout():
    # The packed-monomial layout is poly's alone: no other module imports
    # a private name of poly or reads a ring's field layout.
    package = Path(__file__).resolve().parents[1] / "src" / "curvinv"
    paths = sorted(package.glob("*.py"))
    assert package / "expr.py" in paths
    breaches = []
    for path in paths:
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "poly") or node.module == "curvinv.poly"
            ):
                breaches += [
                    (path.name, node.lineno, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in ("shifts", "masks", "guard"):
                breaches.append((path.name, node.lineno, node.attr))
    assert breaches == []


# --- the coprime basis --------------------------------------------------------


def _sympy_factors(p):
    """sympy's irreducible factors of ``p`` over ZZ, with multiplicities:
    the test-only reference for the certificate."""
    return _sympy_ring(p.ring.ngens, lex).from_dict(dict(p.terms())).factor_list()[1]


def test_a_split_refreshes_stale_factorings():
    R = poly_ring(2)
    x, y = R.gens
    basis = poly.CoprimeBasis(R)
    assert basis.factor(x ** 2 - 1) == (1, ((0, 1),))
    # (x - 1) y splits the element x**2 - 1, which renumbers the basis
    basis.factor((x - 1) * y)
    assert basis.generation == 1
    elements = basis.elements
    assert set(elements) == {x - 1, x + 1, y}
    for i, b in enumerate(elements):
        for c in elements[i + 1 :]:
            assert cofactors(b, c)[0] == R.one
    # the factoring cached before the split is stale and is made again
    content, vector = basis.factor(x ** 2 - 1)
    assert len(vector) == 2
    product = R.ground_new(content)
    for i, e in vector:
        product = product * elements[i] ** e
    assert product == x ** 2 - 1


class TestIrreducibleCertificate:
    def test_certified(self, polar_env):
        a, mu, r, x = polar_env.ring.gens
        basis = poly.CoprimeBasis(polar_env.ring)
        for b in (
            r ** 2 + x ** 2, r ** 2 + a ** 2 * x ** 2, mu * r - r ** 2 - 1, r ** 3 - mu, r, x,
            2 * r ** 2 + 3,  # contents 2 and 3 of its coefficients in r, a unit together
        ):
            assert basis.irreducible(b), b
            assert [e for _, e in _sympy_factors(b)] == [1]

    def test_not_certified(self, polar_env):
        _, _, r, x = polar_env.ring.gens
        basis = poly.CoprimeBasis(polar_env.ring)
        # two with a square discriminant and a square, all reducible, and
        # a cubic in its one variable (irreducible, but past the test)
        for b in (x ** 2 - 1, r ** 2 - x ** 2, (2 * r + 1) ** 2, r ** 3 - 2):
            assert not basis.irreducible(b), b
        # linear in k and in x, but with the polynomial content x in k
        k, x, _ = poly_ring(3).gens
        assert not poly.CoprimeBasis(poly_ring(3)).irreducible(x * k + x)

    def test_memo_is_keyed_by_the_polynomial(self, polar_env):
        _, mu, r, _ = polar_env.ring.gens
        basis = poly.CoprimeBasis(polar_env.ring)
        assert basis.irreducible(mu * r - r ** 2 - 1)
        assert basis._irreducible == {mu * r - r ** 2 - 1: True}


def _primitive(terms):
    content = math.gcd(*terms.values())
    return poly_ring(3).from_dict({m: c // content for m, c in terms.items()})


# Primitive polynomials of two to five terms in three variables, of degree
# at most 2 in the first.
_quadratics_in_first = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2)),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
    min_size=2,
    max_size=5,
).map(_primitive)


@settings(max_examples=150, deadline=None)
@given(_quadratics_in_first)
@example(poly_ring(3).from_dict({(2, 0, 0): 1, (0, 2, 0): 1}))
@example(poly_ring(3).from_dict({(2, 0, 0): 1, (0, 0, 1): 3, (0, 1, 0): -1}))
def test_certified_polynomials_are_irreducible(p):
    if poly.CoprimeBasis(poly_ring(3)).irreducible(p):
        assert [e for _, e in _sympy_factors(p)] == [1]
