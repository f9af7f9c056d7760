import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sympy import Symbol
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grevlex, lex
from sympy.polys.rings import ring

from curvinv import poly
from curvinv.expr import (
    DivisionByZeroExpression,
    Expr,
    RawSum,
    SymbolEnv,
    UnknownSymbolError,
)
from curvinv.metrics import kerr
from curvinv.pipeline import run_invariant

from oracles import EvaluationError, agree_at_random_points, eval_rational, normalize


def test_env_rejects_duplicate_names():
    with pytest.raises(UnknownSymbolError):
        SymbolEnv(coordinates=("r", "r"))
    with pytest.raises(UnknownSymbolError):
        SymbolEnv(coordinates=("r",), parameters=("r",))


class TestNormalize:
    def test_gcd_cancellation(self, polar_env):
        r, a = polar_env.symbol("r"), polar_env.symbol("a")
        assert (r * r - a * a) / (r - a) == r + a

    def test_tree_form(self, polar_env):
        tree = ("/", ("-", ("**", "r", 2), ("**", "a", 2)), ("-", "r", "a"))
        assert normalize(polar_env, tree) == normalize(polar_env, ("+", "r", "a"))

    def test_idempotent(self, polar_env):
        tree = ("*", "cos(theta)", "cos(theta)", ("+", "r", 1))
        once = normalize(polar_env, tree)
        assert normalize(polar_env, once) == once

    def test_division_by_zero_expression(self, polar_env):
        c = polar_env.symbol("cos(theta)")
        with pytest.raises(DivisionByZeroExpression):
            polar_env.symbol("r") / ((1 - c) * (1 + c) + c * c - 1)

    def test_unknown_symbol(self, polar_env):
        with pytest.raises(UnknownSymbolError):
            normalize(polar_env, "bogus")

    def test_equal_inputs_identical_canonical_form(self, polar_env):
        # a quotient and its expansion by a common factor must collide
        c = polar_env.symbol("cos(theta)")
        one = polar_env.one()
        assert (one - c * c) / (one + c) == one - c
        assert c / (one - c) == (c + c * c) / (one - c * c)


class TestArith:
    def test_add_inverse(self, polar_env):
        r = polar_env.symbol("r")
        assert (r + -r).is_zero

    def test_mul_identity(self, polar_env):
        e = polar_env.symbol("mu") / polar_env.symbol("r")
        assert polar_env.one() * e == e

    def test_mul_cancellation(self, polar_env):
        r, mu = polar_env.symbol("r"), polar_env.symbol("mu")
        assert (mu / r) * r == mu

    def test_pow_negative(self, polar_env):
        r = polar_env.symbol("r")
        assert r ** -2 == polar_env.one() / (r * r)

    def test_div_by_zero(self, polar_env):
        a = polar_env.symbol("a")
        for divide in (
            lambda: polar_env.one() / polar_env.zero(),
            lambda: polar_env.zero() ** -1,
            lambda: (1 / (a - 1)).substitute("a", 1),  # denominator vanishes
        ):
            with pytest.raises(DivisionByZeroExpression):
                divide()

    def test_zero_operand_skips_make(self, polar_env, monkeypatch):
        r, mu, c = (polar_env.symbol(n) for n in ("r", "mu", "cos(theta)"))
        x = mu * (r - c) / (r ** 2 + c ** 2)
        zero = polar_env.zero()
        calls = []
        real = Expr.make.__func__

        def counting(cls, env, num, den):
            calls.append(1)
            return real(cls, env, num, den)

        monkeypatch.setattr(Expr, "make", classmethod(counting))
        assert zero + x == x
        assert x + zero == x
        assert x - zero == x
        assert zero - x == -x
        assert zero + zero == zero and zero - zero == zero
        assert calls == []


class TestDiff:
    def test_power_rule(self, polar_env):
        r = polar_env.symbol("r")
        assert (r ** 2).diff("r") == 2 * r

    def test_linearity_on_rho_squared(self, polar_env):
        r, a = polar_env.symbol("r"), polar_env.symbol("a")
        c = polar_env.symbol("cos(theta)")
        rho2 = r ** 2 + a ** 2 * c ** 2
        assert rho2.diff("cos(theta)") == 2 * a ** 2 * c
        assert rho2.diff("r") == 2 * r

    def test_quotient_rule(self, polar_env):
        r, mu = polar_env.symbol("r"), polar_env.symbol("mu")
        assert (mu / r).diff("r") == -mu / r ** 2

    def test_unknown_coordinate(self, polar_env):
        with pytest.raises(UnknownSymbolError):
            polar_env.symbol("r").diff("a")  # parameter, not a coordinate


class TestTermCount:
    def test_zero(self, polar_env):
        assert polar_env.zero().term_count() == 0

    def test_three_terms(self, polar_env):
        r, a = polar_env.symbol("r"), polar_env.symbol("a")
        assert (r + a ** 2 - 3).term_count() == 3

    def test_counts_numerator_only(self, polar_env):
        r, a = polar_env.symbol("r"), polar_env.symbol("a")
        e = (r + a) / (r ** 2 + 2 * a + 3)
        assert e.term_count() == 2


class TestEvalRational:
    def test_simple(self, polar_env):
        e = polar_env.symbol("r") + polar_env.symbol("a")
        assert eval_rational(e, {"r": 2, "a": 3}) == 5

    def test_zero(self, polar_env):
        assert eval_rational(polar_env.zero(), {}) == 0

    def test_fractions(self, polar_env):
        e = polar_env.symbol("mu") / polar_env.symbol("r")
        assert eval_rational(e, {"mu": Fraction(1, 2), "r": Fraction(3, 4)}) == Fraction(2, 3)

    def test_missing_symbol(self, polar_env):
        with pytest.raises(EvaluationError):
            eval_rational(polar_env.symbol("r"), {})

    def test_vanishing_denominator(self, polar_env):
        r, a = polar_env.symbol("r"), polar_env.symbol("a")
        with pytest.raises(EvaluationError):
            eval_rational(1 / (r - a), {"r": 2, "a": 2})


def test_substitute_clears_parameter(polar_env):
    r, a, mu = (polar_env.symbol(n) for n in ("r", "a", "mu"))
    c = polar_env.symbol("cos(theta)")
    delta = mu * r / (r ** 2 + a ** 2 * c ** 2)
    assert delta.substitute("a", 0) == mu / r
    assert delta.substitute("mu", Fraction(1, 2)) == r / (2 * (r ** 2 + a ** 2 * c ** 2))


def test_pickle_round_trip(polar_env):
    c = polar_env.symbol("cos(theta)")
    e = (c * polar_env.symbol("mu")) / ((1 - c ** 2) * (polar_env.symbol("r") - 1))
    clone = pickle.loads(pickle.dumps(e))
    assert clone == e
    assert str(clone) == str(e)


def test_string_form_is_deterministic(polar_env):
    r, a = polar_env.symbol("r"), polar_env.symbol("a")
    c = polar_env.symbol("cos(theta)")
    assert str(r + a) == "a + r"
    assert str(polar_env.zero()) == "0"
    e = (r ** 2 + a ** 2 * c ** 2) / (r - a)
    assert str(e) == str((r ** 2 + a ** 2 * c ** 2) / (r - a))
    assert str(e).count("/") == 1 and "cos(theta)**2" in str(e)


# --- property tests -----------------------------------------------------------

_env = SymbolEnv(coordinates=("x", "t"), parameters=("k",))


def _leaves():
    return st.sampled_from(["x", "k", "t"]) | st.integers(min_value=-4, max_value=4)


def _trees(depth):
    if depth == 0:
        return _leaves()
    sub = _trees(depth - 1)
    return st.one_of(
        _leaves(),
        st.tuples(st.just("+"), sub, sub),
        st.tuples(st.just("-"), sub, sub),
        st.tuples(st.just("*"), sub, sub),
        st.tuples(st.just("**"), sub, st.integers(min_value=0, max_value=3)),
    )


def _safe_normalize(tree):
    return normalize(_env, tree)


@settings(max_examples=60, deadline=None)
@given(_trees(3))
def test_normalize_idempotent(tree):
    e = _safe_normalize(tree)
    assert normalize(_env, e) == e


@settings(max_examples=60, deadline=None)
@given(_trees(2), _trees(2))
def test_field_axioms(t1, t2):
    a, b = _safe_normalize(t1), _safe_normalize(t2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    assert a - a == _env.zero()


@settings(max_examples=60, deadline=None)
@given(_trees(2), _trees(2))
def test_diff_product_rule(t1, t2):
    a, b = _safe_normalize(t1), _safe_normalize(t2)
    lhs = (a * b).diff("t")
    rhs = a.diff("t") * b + a * b.diff("t")
    assert (lhs - rhs).is_zero


def test_zero_test_soundness_via_random_points():
    # normalize(e1 - e2) == 0 must coincide with exact agreement at
    # random rational points (10 per pair, fixed seed).
    rng = random.Random(20240817)
    x, k, t = _env.symbol("x"), _env.symbol("k"), _env.symbol("t")
    pairs = [
        (x * (x + k), x ** 2 + k * x, True),
        ((x ** 2 - k ** 2) / (x - k), x + k, True),
        ((1 - t ** 2) / (1 + t), 1 - t, True),
        (x + k, x - k, False),
        (t * x, x, False),
        (x / (x + 1), x, False),
    ]
    for e1, e2, equal in pairs:
        assert ((e1 - e2).is_zero) is equal
        assert agree_at_random_points(e1, e2, seed=rng.randrange(10 ** 6)) is equal


# --- sums of raw products grouped by denominator ---------------------------------

# Divisors for the factors: repeated and shared denominators in one, two
# and three generators, so products fall into few groups.
_DIVISORS = (
    1,
    ("-", "x", "k"),
    ("+", ("**", "x", 2), "k"),
    ("+", 1, "t"),
    ("+", "x", ("**", "t", 2)),
    ("*", ("-", "x", "k"), ("+", 1, "t")),
)


def _factors():
    return st.tuples(_trees(2), st.sampled_from(_DIVISORS)).map(
        lambda pair: normalize(_env, ("/", pair[0], pair[1]))
    )


def _products():
    return st.lists(
        st.tuples(
            st.lists(_factors(), min_size=1, max_size=3), st.sampled_from([1, -1, 2, -4])
        ),
        max_size=8,
    )


def _canonical_sum(products, env=_env):
    """The products added one at a time with ``Expr``'s own operators."""
    total = env.zero()
    for values, coefficient in products:
        product = env.integer(coefficient)
        for v in values:
            product = product * v
        total = total + product
    return total


def _raw_sum(products):
    total = RawSum(_env)
    for values, coefficient in products:
        total.add_product(values, coefficient)
    return total.value()


@settings(max_examples=60, deadline=None)
@given(_products(), st.booleans())
def test_raw_sum_equals_canonical_sum(products, cancel_first):
    if cancel_first and products:
        # the first product's group also holds its negation
        values, coefficient = products[0]
        products = products + [(values, -coefficient)]
    assert _raw_sum(products) == _canonical_sum(products)


class TestRawSum:
    def test_empty_is_zero(self):
        assert RawSum(_env).value() == _env.zero()

    def test_group_cancelling_to_zero(self):
        x, k, c = _env.symbol("x"), _env.symbol("k"), _env.symbol("t")
        left, right = x / (x - k), (c + k) / (x - k)
        products = [([left, right], 1), ([right, left], -1), ([c / (1 + c)], 1)]
        assert _raw_sum(products) == c / (1 + c)

    def test_groups_cancelling_each_other(self):
        # x/(x-k) * 1/x and 1/(x-k) are one value over two raw denominators
        x, k = _env.symbol("x"), _env.symbol("k")
        products = [([x / (x - k), 1 / x], 1), ([1 / (x - k)], -1)]
        assert _raw_sum(products).is_zero
        assert _raw_sum(products + [([k / x], -1)]) == -k / x

    def test_integer_denominators(self):
        one, x = _env.one(), _env.symbol("x")
        products = [([one / 2], 1), ([one / 3], 1), ([x / 6], 1)]
        assert _raw_sum(products) == _canonical_sum(products)
        assert str(_raw_sum(products)) == "(x + 5)/(6)"

    @staticmethod
    def _count_makes(monkeypatch):
        calls = []
        real = Expr.make.__func__

        def counting(cls, env, num, den):
            calls.append(1)
            return real(cls, env, num, den)

        monkeypatch.setattr(Expr, "make", classmethod(counting))
        return calls

    def test_one_make_per_sum(self, monkeypatch):
        # four groups: (x-k), x(x-k) and (x-k)**2 share a factor, (k+1) is coprime
        x, k = _env.symbol("x"), _env.symbol("k")
        products = [
            ([x / (x - k)], 1),
            ([1 / x, 1 / (x - k)], -1),
            ([k / (k + 1)], 1),
            ([x / (x - k), k / (x - k)], 1),
        ]
        expected = _canonical_sum(products)
        calls = self._count_makes(monkeypatch)
        assert _raw_sum(products) == expected
        assert len(calls) <= 1

    def test_leftover_elements_coprime_to_the_numerator_skip_make(self, monkeypatch):
        # x**2 - 1 stays in the denominator and the GCDs with the
        # numerator's coefficients in k prove the quotient reduced, so no
        # make runs; in the second sum the coefficient 1 + x of k**0 shares
        # x + 1 with it, and the coefficient x of k does not
        env = _fresh_env()
        x, k = env.symbol("x"), env.symbol("k")
        one = [([1 / (x ** 2 - 1)], 1), ([k / (x ** 2 - 1)], 2)]
        two = [([1 / (x ** 2 - 1)], 1), ([x / (x ** 2 - 1)], 1), ([k * x / (x ** 2 - 1)], 1)]
        expected = ((2 * k + 1) / (x ** 2 - 1), (1 + x + k * x) / (x ** 2 - 1))
        calls = self._count_makes(monkeypatch)
        assert (_raw_sum_in(env, one), _raw_sum_in(env, two)) == expected
        assert calls == []

    def test_leftover_element_sharing_a_factor_falls_back_to_make(self, monkeypatch):
        # x**2 - 1 is one basis element of a fresh env, which x + 1 does not
        # divide but shares the factor x + 1 with; in the second sum the
        # numerator (1 + k)(1 + x) has the factor in each coefficient in k.
        # The makes are counted inside the two sums alone, and the expected
        # values built after them: building 1/(x - 1) splits x**2 - 1.
        env = _fresh_env()
        x, k = env.symbol("x"), env.symbol("k")
        one = [([1 / (x ** 2 - 1)], 1), ([x / (x ** 2 - 1)], 1)]
        two = one + [([k / (x ** 2 - 1)], 1), ([k * x / (x ** 2 - 1)], 1)]
        calls = self._count_makes(monkeypatch)
        sums = (_raw_sum_in(env, one), _raw_sum_in(env, two))
        assert len(calls) == 2
        assert sums == (1 / (x - 1), (1 + k) / (x - 1))

    def test_leftover_element_with_a_polynomial_content_falls_back_to_make(self):
        # x*k + x is one basis element of a fresh env, linear in k and in x
        # but with the content x in k (and k + 1 in x): not certified, so
        # _coprime finds the factor k + 1 it shares with the numerator 1 + k
        env = _fresh_env()
        x, k = env.symbol("x"), env.symbol("k")
        products = [([1 / (x * k + x)], 1), ([k / (x * k + x)], 1)]
        assert _raw_sum_in(env, products) == 1 / x

    def test_certified_leftover_elements_skip_coprime(self, monkeypatch):
        # rho**2 = r**2 + x**2 and Delta = mu r - r**2 - 1 of Kerr D=4 at
        # a=1 stay in the denominator; both are certified irreducible, so
        # their failed exact divisions prove the sum reduced
        metric = kerr(4).substitute("a", 1)
        env = metric.env
        g_tt, g_tphi, g_rr = (metric.component(slot) for slot in ((0, 0), (0, 3), (1, 1)))
        products = [([g_tt], 1), ([g_rr], 1), ([g_tphi, g_rr], 2)]
        calls = []
        real = poly._coprime

        def counting(p, b):
            calls.append(b)
            return real(p, b)

        monkeypatch.setattr(poly, "_coprime", counting)
        total = _raw_sum_in(env, products)
        assert calls == []
        assert total.den == g_tt.den * g_rr.den
        assert total == _canonical_sum(products, env)


# --- products cancelled over the basis before they are multiplied ---------------

_K, _X, _T = _env.ring.gens

# Pieces of numerators and denominators: irreducible elements, reducible ones
# that the certificate does not cover (x**2 - 1, which x - 1 or x + 1 splits,
# and x**2, which x splits), an element in two variables, and one that
# several others share a variable with.
_PIECES = (_X - _K, _T + 1, _X ** 2 - 1, _X - 1, _X + 1, _X, _X ** 2, _X + _T ** 2, _K * _T + 1)
_NUMERATORS = (_env.ring.one, _K, _X + _T, 2 * _T - _K, -3 * _X * _T)
_CONTENTS = (1, 1, 2, 3, 6)


def _piece_product(pieces):
    p = _env.ring.one
    for piece, e in pieces:
        p = p * piece ** e
    return p


def _cancel_factors():
    """Canonical factors (through ``Expr.make`` alone, never the basis):
    a small numerator times element powers over a constant times element
    powers, so that one factor's numerator often shares an element with
    another's denominator."""
    pieces = st.lists(st.tuples(st.sampled_from(_PIECES), st.integers(1, 2)), max_size=2)
    return st.tuples(
        st.sampled_from(_NUMERATORS), pieces, st.sampled_from(_CONTENTS), pieces
    ).map(
        lambda f: (f[0] * _piece_product(f[1]), f[2] * _piece_product(f[3]))
    )


def _cancel_products():
    return st.lists(
        st.tuples(st.lists(_cancel_factors(), min_size=1, max_size=3), st.sampled_from([1, -1, 2, -3])),
        min_size=1,
        max_size=4,
    )


def _in_env(env, products):
    """The raw ``(num, den)`` factors of ``products`` as canonical
    expressions of ``env``."""
    return [
        ([Expr.make(env, num, den) for num, den in factors], coefficient)
        for factors, coefficient in products
    ]


def _made_sum(env, products):
    """The sum with every numerator and denominator multiplied out and one
    ``Expr.make`` at the end: the GCD path alone, no basis."""
    ring = env.ring
    num, den = ring.zero, ring.one
    for values, coefficient in products:
        n, d = ring.ground_new(coefficient), ring.one
        for v in values:
            n, d = n * v.num, d * v.den
        num, den = num * d + n * den, den * d
    return Expr.make(env, num, den)


@settings(max_examples=80, deadline=None)
@given(_cancel_products(), _cancel_products())
@example(
    # 1/x + 1/(3 x**2) is (3x + 1)/(3 x**2): the content 3 stays
    first=[([(_env.ring.one, _X)], 1), ([(_env.ring.one, 3 * _X ** 2)], 1)],
    second=[],
)
@example(
    # x**3 over x: the numerator keeps x**2, no more is cancelled
    first=[([(_X ** 3, _T + 1), (_env.ring.one, 2 * _X)], 1)],
    second=[],
)
@example(
    # x**2 - 1 enters the basis whole, then x - 1 splits it
    first=[([((_X - 1) * _T, _X ** 2 - 1), (_X + 1, _T + 1)], 1)],
    second=[([(_X + 1, _X - 1), (_X ** 2 - 1, 3 * _X)], 1), ([(_K, _X ** 2 - 1)], -1)],
)
def test_cancelled_products_equal_the_gcd_path(first, second):
    # Each example starts from an empty basis, which the first sum grows, so
    # the second may split an element between or within its products.
    env = _fresh_env()
    for products in (first, second):
        products = _in_env(env, products)
        total = _raw_sum_in(env, products)
        assert total == _made_sum(env, products)
        assert total == _canonical_sum(products, env)
        for values, coefficient in products:
            # one product alone, with no lift
            assert _raw_sum_in(env, [(values, coefficient)]) == _made_sum(env, [(values, coefficient)])


@settings(max_examples=60, deadline=None)
@given(_cancel_products(), st.sampled_from(["x", "t"]))
def test_diff_equals_the_quotient_rule_with_make(products, coordinate):
    env = _fresh_env()
    e = _made_sum(env, _in_env(env, products))
    i = env.gen_index(coordinate)
    num, den = e.num, e.den
    expected = Expr.make(env, num.diff(i) * den - num * den.diff(i), den * den)
    assert e.diff(coordinate) == expected


# --- the coprime basis that RawSum factors denominators over --------------------

# Denominators that repeat, share and reduce one another, so the basis of
# a fresh env is refined as they arrive: x**2 then x (a split that keeps
# the element count), x**2 - 1 against x - 1, x - k against x, integer
# contents, 1 - t**2 against 1 + t, and a divisor in two generators.
_BASIS_DIVISORS = (
    1,
    3,
    "x",
    ("**", "x", 2),
    ("*", 2, ("**", "x", 3)),
    ("-", 1, ("**", "x", 2)),
    ("-", 1, "x"),
    ("*", 6, ("+", 1, "x")),
    ("*", ("-", "x", "k"), ("**", "x", 2)),
    ("-", 1, ("**", "t", 2)),
    ("+", 1, "t"),
    ("+", "x", ("**", "t", 2)),
)


def _basis_products():
    factor = st.tuples(_trees(1), st.sampled_from(_BASIS_DIVISORS)).map(
        lambda pair: normalize(_env, ("/", pair[0], pair[1]))
    )
    return st.lists(
        st.tuples(st.lists(factor, min_size=1, max_size=3), st.sampled_from([1, -1, 3])),
        max_size=6,
    )


def _fresh_env():
    """An env equal to ``_env`` with its own, empty basis."""
    return SymbolEnv(coordinates=_env.coordinates, parameters=_env.parameters)


def _raw_sum_in(env, products):
    total = RawSum(env)
    for values, coefficient in products:
        total.add_product(values, coefficient)
    return total.value()


def _over(divisor, numerator=1):
    return normalize(_env, ("/", numerator, divisor))


@settings(max_examples=80, deadline=None)
@given(_basis_products(), _basis_products())
@example(earlier=[], products=[([_over(("**", "x", 2))], 1), ([_over("x")], 1)])
@example(
    earlier=[([_over(("**", "x", 2))], 1)],
    products=[([_over("x")], 1), ([_over(("**", "x", 2)), _over(3)], 1)],
)
@example(
    earlier=[([_over(("-", 1, ("**", "x", 2)))], 1)],
    products=[([_over(("-", 1, "x"), "x")], 1), ([_over(("-", 1, ("**", "x", 2)))], -1)],
)
def test_raw_sum_over_a_growing_basis_equals_canonical_sum(earlier, products):
    # Each example starts from an empty basis; the earlier sum grows it, so
    # the second sum meets cached factorings that its own denominators may
    # make stale, and each sum may refine the basis partway through.
    env = _fresh_env()
    assert _raw_sum_in(env, earlier) == _canonical_sum(earlier)
    assert _raw_sum_in(env, products) == _canonical_sum(products)
    elements = env.basis.elements
    for i, b in enumerate(elements):
        assert b.LC > 0 and math.gcd(*b.values()) == 1
        for c in elements[i + 1 :]:
            assert len(poly.cofactors(b, c)[0]) == 1


def test_a_split_between_add_and_value_is_followed():
    # One product's x + 1 over x**2 - 1: the element x**2 - 1 divides no
    # factor.  Before value(), another sum splits it into x - 1 and x + 1,
    # which are certified irreducible, and x + 1 divides the numerator.
    env = _fresh_env()
    x = env.symbol("x")
    total = RawSum(env)
    total.add_product([x + 1, 1 / (x ** 2 - 1)])
    split = 1 / (x - 1)
    assert len(env.basis.elements) == 2
    assert total.value() == split
    # and a group keyed before a split is keyed again, and merges, after it
    env = _fresh_env()
    x = env.symbol("x")
    total = RawSum(env)
    total.add_product([x / (x ** 2 - 1)], 2)
    split = 1 / (x - 1)
    total.add_product([x, split, 1 / (x + 1)], -1)
    assert total.value() == x / (x ** 2 - 1)


def test_basis_belongs_to_the_env_instance():
    # each metric fills its own env's basis while it is built; sums on the
    # first env, one of them over a new denominator, leave the second's as
    # it was
    first, second = kerr(4), kerr(4)
    assert first.env == second.env
    assert first.env.basis is not second.env.basis
    before = list(second.env.basis.elements)
    assert before == first.env.basis.elements
    total = RawSum(first.env)
    total.add_product([first.component((2, 2)), first.component((1, 1))])
    total.add_product([1 / (first.env.symbol("t") + 1)])
    total.value()
    assert len(first.env.basis.elements) > len(before)
    assert second.env.basis.elements == before


def test_basis_is_never_pickled():
    env = _fresh_env()
    x, k = env.symbol("x"), env.symbol("k")
    e = x / (x - k)
    before = len(pickle.dumps(e))
    total = RawSum(env)
    total.add_product([e, 1 / (x ** 2 - 1)])
    total.add_product([k / x])
    total.value()
    assert len(env.basis.elements) >= 3
    assert len(pickle.dumps(e)) == before
    assert not pickle.loads(pickle.dumps(e)).env.basis.elements


# --- cancellation against sympy's grevlex cancel --------------------------------


def _sympy_ring(env, order):
    """sympy's ring over the env's generators, the independent reference."""
    return ring([Symbol(name) for name in env.gen_names], ZZ, order)[0]


def _grevlex_cancel(env, num, den):
    """sympy's ``cancel`` in a grevlex ring over the env's generators: the
    reference for the GCD that make runs in lex order over only the
    generators present."""
    S = _sympy_ring(env, grevlex)
    num, den = S.from_dict(dict(num.terms())).cancel(S.from_dict(dict(den.terms())))
    return env.ring.from_dict(dict(num)), env.ring.from_dict(dict(den))


def _gens(env, *names):
    return [env.ring.gens[env.gen_index(n)] for n in names]


def _lex_lc(p):
    # lex order on packed monomials is plain integer order
    return p[max(p)]


def _random_poly(env, rng):
    R = env.ring
    a, mu, r, c = _gens(env, "a", "mu", "r", "cos(theta)")
    p = R.zero
    while not p:
        for _ in range(rng.randint(1, 4)):
            term = R.ground_new(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]))
            for g in (a, mu, r, c):
                term *= g ** rng.randint(0, 2)
            p += term
    return p


def _assert_make_matches_cancel(env, num, den):
    e = Expr.make(env, num, den)
    assert e.num.ring is env.ring and e.den.ring is env.ring
    assert (e.num, e.den) == _grevlex_cancel(env, num, den)
    return e


class TestCancelOracle:
    def test_shared_non_monomial_factor(self, polar_env):
        a, mu, r, c = _gens(polar_env, "a", "mu", "r", "cos(theta)")
        rho2 = r ** 2 + a ** 2 * c ** 2
        e = _assert_make_matches_cancel(polar_env, (r - mu) * rho2 ** 2, (a + r ** 3) * rho2)
        assert (e.num, e.den) == ((r - mu) * rho2, a + r ** 3)

    def test_denominator_sign_differs_between_orders(self, polar_env):
        a, mu, r = _gens(polar_env, "a", "mu", "r")
        negative_grevlex = a - r ** 2  # grevlex leads with r**2, lex with a
        positive_grevlex = r ** 2 - a
        assert negative_grevlex.LC < 0 < _lex_lc(negative_grevlex)
        assert _lex_lc(positive_grevlex) < 0 < positive_grevlex.LC
        for den in (negative_grevlex, positive_grevlex):
            e = _assert_make_matches_cancel(polar_env, (mu + r) * (r + 1), den * (r + 1))
            assert e.den.LC > 0
            assert e.den == positive_grevlex

    def test_common_integer_content(self, polar_env):
        a, mu, r = _gens(polar_env, "a", "mu", "r")
        e = _assert_make_matches_cancel(polar_env, 6 * (r + a), -4 * (r - mu))
        # grevlex breaks the degree tie between mu and r in favour of mu
        assert (e.num, e.den) == (3 * (r + a), 2 * (mu - r))

    def test_zero_numerator(self, polar_env):
        R = polar_env.ring
        (r,) = _gens(polar_env, "r")
        e = _assert_make_matches_cancel(polar_env, R.zero, r ** 2 - 1)
        assert e.is_zero and e.den == R.one

    def test_no_generators(self, polar_env):
        R = polar_env.ring
        e = _assert_make_matches_cancel(polar_env, R.ground_new(6), R.ground_new(-4))
        assert (e.num, e.den) == (R.ground_new(-3), R.ground_new(2))

    def test_no_shared_generator(self, polar_env):
        r, c = _gens(polar_env, "r", "cos(theta)")
        e = _assert_make_matches_cancel(polar_env, r + 1, c ** 2 - 1)
        assert (e.num, e.den) == (r + 1, c ** 2 - 1)

    def test_single_generator(self, polar_env):
        (r,) = _gens(polar_env, "r")
        e = _assert_make_matches_cancel(polar_env, 2 * (r ** 2 - 1), 4 * (1 - r) * r)
        assert (e.num, e.den) == (-(r + 1), 2 * r)

    def test_generators_not_a_prefix(self, polar_env):
        # a and cos(theta) only: the GCD ring skips mu and r in between
        a, c = _gens(polar_env, "a", "cos(theta)")
        shared = a * c - 1
        e = _assert_make_matches_cancel(polar_env, (a - c ** 2) * shared, (a ** 2 + c) * shared ** 2)
        assert (e.num, e.den) == (a - c ** 2, (a ** 2 + c) * shared)

    def test_seeded_random_pairs(self, polar_env):
        rng = random.Random(20261018)
        R = polar_env.ring
        a, mu, r, c = _gens(polar_env, "a", "mu", "r", "cos(theta)")
        shared = [R.one, R.ground_new(6), r ** 2 + a ** 2 * c ** 2, r - a, 1 + mu * c, -(r ** 2) + mu * a]
        signs = set()
        for _ in range(60):
            f = rng.choice(shared)
            num = _random_poly(polar_env, rng) * f
            den = _random_poly(polar_env, rng) * f
            e = _assert_make_matches_cancel(polar_env, num, den)
            signs.add((den.LC > 0, _lex_lc(den) > 0))
            assert e.den.LC > 0
        # both leading-coefficient disagreements between the orders occur
        assert {(False, True), (True, False)} <= signs

    def test_seeded_random_powers(self, polar_env):
        # ``**`` builds its result without a GCD; canonicalising the raw
        # powers must give the same expression
        rng = random.Random(20261019)
        negative = 0
        for _ in range(300):
            content = rng.choice([1, 2, 3, 6])
            num = content * _random_poly(polar_env, rng)
            den = rng.choice([1, 2, 3, 6]) * _random_poly(polar_env, rng)
            q = Expr.make(polar_env, num, den)
            negative += q.num.LC < 0
            k = rng.randint(-3, 4)
            raw = (q.num ** k, q.den ** k) if k >= 0 else (q.den ** -k, q.num ** -k)
            assert q ** k == Expr.make(polar_env, *raw)
        assert negative > 0


def _full_ring_cofactors(env, p, q):
    """Cofactors with the GCD in the lex ring over all of the env's
    generators, mapped back: the reference for ``poly.cofactors``, which
    drops the generators neither input mentions."""
    L = _sympy_ring(env, lex)
    _, p, q = L.from_dict(dict(p.terms())).cofactors(L.from_dict(dict(q.terms())))
    return env.ring.from_dict(dict(p)), env.ring.from_dict(dict(q))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=5))
def test_cofactors_match_full_ring(polar_env, rng, shared_index):
    R = polar_env.ring
    a, mu, r, c = _gens(polar_env, "a", "mu", "r", "cos(theta)")
    shared = [R.one, R.ground_new(-6), r ** 2 + a ** 2 * c ** 2, r - a, 1 + mu * c, c][shared_index]
    p = _random_poly(polar_env, rng) * shared
    q = _random_poly(polar_env, rng) * shared
    _, cff, cfg = poly.cofactors(p, q)
    assert cff.ring is R and cfg.ring is R
    assert (cff, cfg) == _full_ring_cofactors(polar_env, p, q)


def test_kerr4_kretschmann_closed_form(kerr4):
    """12 mu**2 (r**6 - 15 a**2 r**4 c**2 + 15 a**4 r**2 c**4 - a**6 c**6) / rho**12
    with c = cos(theta), rho**2 = r**2 + a**2 c**2 and mu = 2M (R. C. Henry,
    ApJ 535, 350, 2000).

    R^ab_cd R^cd_ab is the same scalar as R^abcd R_abcd with two raised
    slots per factor instead of four, which keeps this check to seconds.
    """
    env = kerr4.env
    r, a, mu, c = (env.symbol(n) for n in ("r", "a", "mu", "cos(theta)"))
    rho2 = r ** 2 + a ** 2 * c ** 2
    numerator = (
        r ** 6 - 15 * a ** 2 * r ** 4 * c ** 2 + 15 * a ** 4 * r ** 2 * c ** 4 - a ** 6 * c ** 6
    )
    expected = 12 * mu ** 2 * numerator / rho2 ** 6
    report = run_invariant(kerr4, "R(+a,+b,-c,-d) R(+c,+d,-a,-b)")
    assert report.invariant == expected
    # The only tier-1 raising over an off-diagonal inverse metric (g^t phi).
    assert (report.raise_mults, report.product_count, report.P) == (256, 20, 276)
