import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sympy import Poly, Symbol, reduced
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
    _clear_sines_from_denominator,
    _sine_reduce,
)
from curvinv.metrics import kerr
from curvinv.pipeline import run_invariant

from oracles import EvaluationError, agree_at_random_points, eval_rational, normalize


def test_env_rejects_duplicate_names():
    with pytest.raises(UnknownSymbolError):
        SymbolEnv(coordinates=("r", "r"))
    with pytest.raises(UnknownSymbolError):
        SymbolEnv(coordinates=("r",), parameters=("r",))


def test_env_rejects_detached_trig_pair():
    with pytest.raises(UnknownSymbolError):
        SymbolEnv(coordinates=("r",), trig_pairs=frozenset({"theta"}))


class TestNormalize:
    def test_pythagorean_rewrite(self, trig_env):
        s, c = trig_env.sin("theta"), trig_env.cos("theta")
        assert s * s + c * c == trig_env.one()

    def test_gcd_cancellation(self, trig_env):
        r, a = trig_env.symbol("r"), trig_env.symbol("a")
        assert (r * r - a * a) / (r - a) == r + a

    def test_sine_square_expansion(self, trig_env):
        s, c = trig_env.sin("theta"), trig_env.cos("theta")
        assert s * s * c == c - c ** 3

    def test_tree_form(self, trig_env):
        tree = ("/", ("-", ("**", "r", 2), ("**", "a", 2)), ("-", "r", "a"))
        assert normalize(trig_env, tree) == normalize(trig_env, ("+", "r", "a"))

    def test_idempotent(self, trig_env):
        tree = ("*", "sin(theta)", "sin(theta)", ("+", "r", 1))
        once = normalize(trig_env, tree)
        assert normalize(trig_env, once) == once

    def test_division_by_zero_expression(self, trig_env):
        s, c = trig_env.sin("theta"), trig_env.cos("theta")
        with pytest.raises(DivisionByZeroExpression):
            trig_env.symbol("r") / (s * s + c * c - 1)

    def test_unknown_symbol(self, trig_env):
        with pytest.raises(UnknownSymbolError):
            normalize(trig_env, "bogus")

    def test_equal_inputs_identical_canonical_form(self, trig_env):
        # cos/sin and its sine-free-denominator rewrite must collide
        s, c = trig_env.sin("theta"), trig_env.cos("theta")
        one = trig_env.one()
        assert (one - c * c) / s == s
        assert c / s == (c * s) / (one - c * c)


class TestArith:
    def test_add_inverse(self, trig_env):
        r = trig_env.symbol("r")
        assert (r + -r).is_zero

    def test_mul_identity(self, trig_env):
        e = trig_env.symbol("mu") / trig_env.symbol("r")
        assert trig_env.one() * e == e

    def test_mul_cancellation(self, trig_env):
        r, mu = trig_env.symbol("r"), trig_env.symbol("mu")
        assert (mu / r) * r == mu

    def test_pow_negative(self, trig_env):
        r = trig_env.symbol("r")
        assert r ** -2 == trig_env.one() / (r * r)

    def test_div_by_zero(self, trig_env):
        with pytest.raises(DivisionByZeroExpression):
            trig_env.one() / trig_env.zero()

    def test_zero_operand_skips_make(self, trig_env, monkeypatch):
        r, mu, c = trig_env.symbol("r"), trig_env.symbol("mu"), trig_env.cos("theta")
        x = mu * (r - c) / (r ** 2 + c ** 2)
        zero = trig_env.zero()
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
    def test_power_rule(self, trig_env):
        r = trig_env.symbol("r")
        assert (r ** 2).diff("r") == 2 * r

    def test_chain_rule(self, trig_env):
        s, c = trig_env.sin("theta"), trig_env.cos("theta")
        assert (c ** 2).diff("theta") == -2 * s * c
        assert s.diff("theta") == c
        assert c.diff("theta") == -s

    def test_linearity_on_rho_squared(self, trig_env):
        r, a = trig_env.symbol("r"), trig_env.symbol("a")
        c, s = trig_env.cos("theta"), trig_env.sin("theta")
        rho2 = r ** 2 + a ** 2 * c ** 2
        assert rho2.diff("theta") == -2 * a ** 2 * s * c

    def test_quotient_rule(self, trig_env):
        r, mu = trig_env.symbol("r"), trig_env.symbol("mu")
        assert (mu / r).diff("r") == -mu / r ** 2

    def test_unknown_coordinate(self, trig_env):
        with pytest.raises(UnknownSymbolError):
            trig_env.symbol("r").diff("a")  # parameter, not a coordinate


class TestTermCount:
    def test_zero(self, trig_env):
        assert trig_env.zero().term_count() == 0

    def test_three_terms(self, trig_env):
        r, a = trig_env.symbol("r"), trig_env.symbol("a")
        assert (r + a ** 2 - 3).term_count() == 3

    def test_counts_numerator_only(self, trig_env):
        r, a = trig_env.symbol("r"), trig_env.symbol("a")
        e = (r + a) / (r ** 2 + 2 * a + 3)
        assert e.term_count() == 2


class TestEvalRational:
    def test_simple(self, trig_env):
        e = trig_env.symbol("r") + trig_env.symbol("a")
        assert eval_rational(e, {"r": 2, "a": 3}) == 5

    def test_zero(self, trig_env):
        assert eval_rational(trig_env.zero(), {}) == 0

    def test_fractions(self, trig_env):
        e = trig_env.symbol("mu") / trig_env.symbol("r")
        assert eval_rational(e, {"mu": Fraction(1, 2), "r": Fraction(3, 4)}) == Fraction(2, 3)

    def test_missing_symbol(self, trig_env):
        with pytest.raises(EvaluationError):
            eval_rational(trig_env.symbol("r"), {})

    def test_vanishing_denominator(self, trig_env):
        r, a = trig_env.symbol("r"), trig_env.symbol("a")
        with pytest.raises(EvaluationError):
            eval_rational(1 / (r - a), {"r": 2, "a": 2})


def test_substitute_clears_parameter(trig_env):
    r, a, mu = (trig_env.symbol(n) for n in ("r", "a", "mu"))
    c = trig_env.cos("theta")
    delta = mu * r / (r ** 2 + a ** 2 * c ** 2)
    assert delta.substitute("a", 0) == mu / r
    assert delta.substitute("mu", Fraction(1, 2)) == r / (2 * (r ** 2 + a ** 2 * c ** 2))


def test_pickle_round_trip(trig_env):
    s, c = trig_env.sin("theta"), trig_env.cos("theta")
    e = (c * trig_env.symbol("mu")) / (s * (trig_env.symbol("r") - 1))
    clone = pickle.loads(pickle.dumps(e))
    assert clone == e
    assert str(clone) == str(e)


def test_string_form_is_deterministic(trig_env):
    r, a = trig_env.symbol("r"), trig_env.symbol("a")
    c = trig_env.cos("theta")
    assert str(r + a) == "a + r"
    assert str(trig_env.zero()) == "0"
    e = (r ** 2 + a ** 2 * c ** 2) / (r - a)
    assert str(e) == str((r ** 2 + a ** 2 * c ** 2) / (r - a))
    assert str(e).count("/") == 1 and "cos(theta)**2" in str(e)


# --- property tests -----------------------------------------------------------

_env = SymbolEnv(coordinates=("x", "t"), parameters=("k",), trig_pairs=frozenset({"t"}))


def _leaves():
    return st.sampled_from(
        ["x", "k", "sin(t)", "cos(t)"]
    ) | st.integers(min_value=-4, max_value=4)


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


@settings(max_examples=80, deadline=None)
@given(_trees(3))
def test_sine_degree_bound(tree):
    e = _safe_normalize(tree)
    si = _env.gen_index("sin(t)")
    for poly in (e.num, e.den):
        for mon in poly.monoms():
            assert mon[si] <= 1


def test_zero_test_soundness_via_random_points():
    # normalize(e1 - e2) == 0 must coincide with exact agreement at
    # random rational points (10 per pair, fixed seed).
    rng = random.Random(20240817)
    x, k = _env.symbol("x"), _env.symbol("k")
    s, c = _env.sin("t"), _env.cos("t")
    pairs = [
        (x * (x + k), x ** 2 + k * x, True),
        ((x ** 2 - k ** 2) / (x - k), x + k, True),
        (s ** 2, 1 - c ** 2, True),
        ((1 - c ** 2) / s, s, True),
        (x + k, x - k, False),
        (s * c, c, False),
        (x / (x + 1), x, False),
    ]
    for e1, e2, equal in pairs:
        assert ((e1 - e2).is_zero) is equal
        assert agree_at_random_points(e1, e2, seed=rng.randrange(10 ** 6)) is equal


# --- sums of raw products grouped by denominator ---------------------------------

# Divisors for the factors: repeated, shared, sine-bearing (cleared by make)
# and cosine-bearing denominators, so products fall into few groups.
_DIVISORS = (
    1,
    ("-", "x", "k"),
    ("+", ("**", "x", 2), "k"),
    ("+", 1, "cos(t)"),
    ("+", "x", "sin(t)"),
    ("*", ("-", "x", "k"), ("+", 1, "cos(t)")),
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


def _canonical_sum(products):
    """The products added one at a time with ``Expr``'s own operators."""
    total = _env.zero()
    for values, coefficient in products:
        product = _env.integer(coefficient)
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

    def test_sine_numerators(self):
        x, k, s = _env.symbol("x"), _env.symbol("k"), _env.sin("t")
        products = [([s * x / (x - k), s], 1), ([s / (x - k), x * s], 1), ([s], -1)]
        assert _raw_sum(products) == _canonical_sum(products)
        assert _raw_sum(products) == 2 * x * (1 - _env.cos("t") ** 2) / (x - k) - s

    def test_group_cancelling_to_zero(self):
        x, k, c = _env.symbol("x"), _env.symbol("k"), _env.cos("t")
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
        calls = []
        real = Expr.make.__func__

        def counting(cls, env, num, den):
            calls.append(1)
            return real(cls, env, num, den)

        monkeypatch.setattr(Expr, "make", classmethod(counting))
        assert _raw_sum(products) == expected
        assert len(calls) == 1


# --- the coprime basis that RawSum factors denominators over --------------------

# Denominators that repeat, share and reduce one another, so the basis of
# a fresh env is refined as they arrive: x**2 then x (a split that keeps
# the element count), x**2 - 1 against x - 1, x - k against x, integer
# contents, 1 - cos**2 against 1 + cos, and a sine-bearing divisor that
# make clears through its conjugate.
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
    ("-", 1, ("**", "cos(t)", 2)),
    ("+", 1, "cos(t)"),
    ("+", "x", "sin(t)"),
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
    return SymbolEnv(
        coordinates=_env.coordinates, parameters=_env.parameters, trig_pairs=_env.trig_pairs
    )


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


def test_basis_belongs_to_the_env_instance():
    first, second = kerr(4), kerr(4)
    assert first.env == second.env
    assert first.env.basis is not second.env.basis
    total = RawSum(first.env)
    total.add_product([first.component(2, 2), first.component(1, 1)])
    total.value()
    assert first.env.basis.elements and not second.env.basis.elements


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
    """Expr.make's sine handling, then sympy's ``cancel`` in a grevlex ring
    over the env's generators: the reference for the GCD that make runs
    in lex order over only the generators present."""
    num, den = _clear_sines_from_denominator(
        env, _sine_reduce(env, num), _sine_reduce(env, den)
    )
    S = _sympy_ring(env, grevlex)
    num, den = S.from_dict(dict(num.terms())).cancel(S.from_dict(dict(den.terms())))
    return env.ring.from_dict(dict(num)), env.ring.from_dict(dict(den))


def _gens(env, *names):
    return [env.ring.gens[env.gen_index(n)] for n in names]


def _lex_lc(p):
    # lex order on packed monomials is plain integer order
    return p[max(p)]


def _random_poly(env, rng, sine):
    R = env.ring
    a, mu, r, c, s = _gens(env, "a", "mu", "r", "cos(theta)", "sin(theta)")
    p = R.zero
    while not p:
        for _ in range(rng.randint(1, 4)):
            term = R.ground_new(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]))
            for g in (a, mu, r, c):
                term *= g ** rng.randint(0, 2)
            if sine and rng.random() < 0.5:
                term *= s
            p += term
    return p


def _assert_make_matches_cancel(env, num, den):
    e = Expr.make(env, num, den)
    assert e.num.ring is env.ring and e.den.ring is env.ring
    assert (e.num, e.den) == _grevlex_cancel(env, num, den)
    return e


class TestCancelOracle:
    def test_shared_non_monomial_factor(self, trig_env):
        a, mu, r, c = _gens(trig_env, "a", "mu", "r", "cos(theta)")
        rho2 = r ** 2 + a ** 2 * c ** 2
        e = _assert_make_matches_cancel(trig_env, (r - mu) * rho2 ** 2, (a + r ** 3) * rho2)
        assert (e.num, e.den) == ((r - mu) * rho2, a + r ** 3)

    def test_denominator_sign_differs_between_orders(self, trig_env):
        a, mu, r = _gens(trig_env, "a", "mu", "r")
        negative_grevlex = a - r ** 2  # grevlex leads with r**2, lex with a
        positive_grevlex = r ** 2 - a
        assert negative_grevlex.LC < 0 < _lex_lc(negative_grevlex)
        assert _lex_lc(positive_grevlex) < 0 < positive_grevlex.LC
        for den in (negative_grevlex, positive_grevlex):
            e = _assert_make_matches_cancel(trig_env, (mu + r) * (r + 1), den * (r + 1))
            assert e.den.LC > 0
            assert e.den == positive_grevlex

    def test_common_integer_content(self, trig_env):
        a, mu, r = _gens(trig_env, "a", "mu", "r")
        e = _assert_make_matches_cancel(trig_env, 6 * (r + a), -4 * (r - mu))
        # grevlex breaks the degree tie between mu and r in favour of mu
        assert (e.num, e.den) == (3 * (r + a), 2 * (mu - r))

    def test_sine_bearing_denominator(self, trig_env):
        r, s, c = _gens(trig_env, "r", "sin(theta)", "cos(theta)")
        e = _assert_make_matches_cancel(trig_env, c * (r + 1), s * r + c)
        assert e.den.degree(trig_env.gen_index("sin(theta)")) == 0

    def test_zero_numerator(self, trig_env):
        R = trig_env.ring
        (r,) = _gens(trig_env, "r")
        e = _assert_make_matches_cancel(trig_env, R.zero, r ** 2 - 1)
        assert e.is_zero and e.den == R.one

    def test_no_generators(self, trig_env):
        R = trig_env.ring
        e = _assert_make_matches_cancel(trig_env, R.ground_new(6), R.ground_new(-4))
        assert (e.num, e.den) == (R.ground_new(-3), R.ground_new(2))

    def test_no_shared_generator(self, trig_env):
        r, c = _gens(trig_env, "r", "cos(theta)")
        e = _assert_make_matches_cancel(trig_env, r + 1, c ** 2 - 1)
        assert (e.num, e.den) == (r + 1, c ** 2 - 1)

    def test_single_generator(self, trig_env):
        (r,) = _gens(trig_env, "r")
        e = _assert_make_matches_cancel(trig_env, 2 * (r ** 2 - 1), 4 * (1 - r) * r)
        assert (e.num, e.den) == (-(r + 1), 2 * r)

    def test_generators_not_a_prefix(self, trig_env):
        # a and cos(theta) only: the GCD ring skips mu and r in between
        a, c = _gens(trig_env, "a", "cos(theta)")
        shared = a * c - 1
        e = _assert_make_matches_cancel(trig_env, (a - c ** 2) * shared, (a ** 2 + c) * shared ** 2)
        assert (e.num, e.den) == (a - c ** 2, (a ** 2 + c) * shared)

    def test_seeded_random_pairs(self, trig_env):
        rng = random.Random(20261018)
        R = trig_env.ring
        a, mu, r, c = _gens(trig_env, "a", "mu", "r", "cos(theta)")
        shared = [R.one, R.ground_new(6), r ** 2 + a ** 2 * c ** 2, r - a, 1 + mu * c, -(r ** 2) + mu * a]
        signs = set()
        for _ in range(60):
            f = rng.choice(shared)
            num = _random_poly(trig_env, rng, sine=True) * f
            den = _random_poly(trig_env, rng, sine=rng.random() < 0.3) * f
            e = _assert_make_matches_cancel(trig_env, num, den)
            signs.add((den.LC > 0, _lex_lc(den) > 0))
            assert e.den.LC > 0
        # both leading-coefficient disagreements between the orders occur
        assert {(False, True), (True, False)} <= signs


def _full_ring_cofactors(env, p, q):
    """Cofactors with the GCD in the lex ring over all of the env's
    generators, mapped back: the reference for ``poly.cofactors``, which
    drops the generators neither input mentions."""
    L = _sympy_ring(env, lex)
    _, p, q = L.from_dict(dict(p.terms())).cofactors(L.from_dict(dict(q.terms())))
    return env.ring.from_dict(dict(p)), env.ring.from_dict(dict(q))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=5))
def test_cofactors_match_full_ring(trig_env, rng, shared_index):
    R = trig_env.ring
    a, mu, r, c = _gens(trig_env, "a", "mu", "r", "cos(theta)")
    shared = [R.one, R.ground_new(-6), r ** 2 + a ** 2 * c ** 2, r - a, 1 + mu * c, c][shared_index]
    p = _random_poly(trig_env, rng, sine=True) * shared
    q = _random_poly(trig_env, rng, sine=rng.random() < 0.3) * shared
    _, cff, cfg = poly.cofactors(p, q)
    assert cff.ring is R and cfg.ring is R
    assert (cff, cfg) == _full_ring_cofactors(trig_env, p, q)


# --- sine reduction against sympy's reduction by sin**2 + cos**2 - 1 ------------

_two_trig_env = SymbolEnv(
    coordinates=("theta", "phi"), parameters=("a",), trig_pairs=frozenset({"theta", "phi"})
)


def _sympy_sine_reduce(env, p):
    """``p`` reduced modulo sin(x)**2 + cos(x)**2 - 1 for every trig pair by
    sympy, in lex order with the sines ranked first.  The leading terms
    sin(x)**2 are pairwise coprime, so the relations are a Groebner basis
    and the remainder is the unique normal form: no sine above degree 1."""
    symbols = [Symbol(name) for name in env.gen_names]
    sines = [symbols[si] for si, _ in env.trig_indices]
    relations = [symbols[si] ** 2 + symbols[ci] ** 2 - 1 for si, ci in env.trig_indices]
    others = [x for x in symbols if x not in sines]
    _, remainder = reduced(
        Poly.from_dict(dict(p.terms()), *symbols).as_expr(), relations, *sines, *others,
        order="lex",
    )
    return Poly(remainder, *symbols).as_dict()


def _two_trig_polys():
    # exponents of a, theta, phi, sin(theta), cos(theta), sin(phi), cos(phi)
    monomials = st.tuples(
        st.integers(0, 2), st.integers(0, 1), st.just(0),
        st.integers(0, 7), st.integers(0, 3), st.integers(0, 7), st.integers(0, 3),
    )
    return st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_two_trig_polys())
@example({(0, 0, 0, k, 0, 7 - k, 0): k + 1 for k in range(8)})
@example({(0, 0, 0, 2, 0, 0, 0): 1, (0, 0, 0, 0, 2, 0, 0): 1, (0, 0, 0, 0, 0, 0, 0): -1})
def test_sine_reduce_matches_sympy(terms):
    p = _two_trig_env.ring.from_dict(terms)
    assert dict(_sine_reduce(_two_trig_env, p).terms()) == _sympy_sine_reduce(_two_trig_env, p)


def test_kerr4_kretschmann_closed_form(kerr4):
    """12 mu**2 (r**6 - 15 a**2 r**4 c**2 + 15 a**4 r**2 c**4 - a**6 c**6) / rho**12
    with c = cos(theta), rho**2 = r**2 + a**2 c**2 and mu = 2M (R. C. Henry,
    ApJ 535, 350, 2000).

    R^ab_cd R^cd_ab is the same scalar as R^abcd R_abcd with two raised
    slots per factor instead of four, which keeps this check to seconds.
    """
    env = kerr4.env
    r, a, mu, c = env.symbol("r"), env.symbol("a"), env.symbol("mu"), env.cos("theta")
    rho2 = r ** 2 + a ** 2 * c ** 2
    numerator = (
        r ** 6 - 15 * a ** 2 * r ** 4 * c ** 2 + 15 * a ** 4 * r ** 2 * c ** 4 - a ** 6 * c ** 6
    )
    expected = 12 * mu ** 2 * numerator / rho2 ** 6
    report = run_invariant(kerr4, "R(+a,+b,-c,-d) R(+c,+d,-a,-b)")
    assert report.invariant == expected
    # The only tier-1 raising over an off-diagonal inverse metric (g^t phi).
    assert (report.raise_mults, report.product_count, report.P) == (256, 20, 276)
