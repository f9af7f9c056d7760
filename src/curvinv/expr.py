"""Exact rational expressions over a fixed symbol environment.

An expression is a quotient of two multivariate polynomials with integer
coefficients over the environment's generators: its parameters and its
coordinates.  Every value handed out by this module is in canonical form:
the reduced quotient p/q over the integers, both polynomials fully
expanded, sharing no factor, with the denominator's leading coefficient
positive under the fixed graded monomial order.

Canonical forms are unique: two expressions equal as rational functions
compare equal componentwise.  In particular an expression is zero exactly
when its numerator is the zero polynomial.

Polynomials are :class:`curvinv.poly.Poly` values in the env's ring,
read and built only through that module's public names.

All arithmetic goes through the env's coprime basis of the denominators
it has met (``curvinv.poly.CoprimeBasis``, one per :class:`SymbolEnv`
instance, never pickled).  A :class:`RawSum` canonicalises a sum of
products once: each product is cancelled before it is multiplied (an
element power that one factor's denominator shares with another factor's
numerator is divided out of both), only the cancelled numerators are
multiplied out, and the groups, keyed by what is left of their
denominators, are brought over their least common denominator, divided
by element powers as far as that goes, and proved reduced.
:func:`sum_by_key` keeps one sum per key.  ``*``, ``+`` and ``-`` are
each one such sum, ``a / b`` is ``a * b**-1``, and :meth:`Expr.diff`
sums the quotient rule over the factored denominator.  Canonical forms
are unique, so every result is, byte for byte, the one that multiplying
everything out and cancelling by a GCD gives.

The GCD, ``curvinv.poly.cofactors``, a port of sympy's heuristic GCD
(heugcd: Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989), serves
the basis (refinement and the coprimality proof of an element that the
irreducibility certificate does not cover), and :meth:`Expr.make`: the
fallback for a sum the basis cannot prove reduced, and exact
substitution.  Over ZZ the reduced cofactors are unique up to one common
sign, so re-applying the grevlex sign rule, the denominator's leading
coefficient positive, gives the unique canonical form.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

from .poly import CoprimeBasis, SymbolicError, cofactors, poly_ring


class DivisionByZeroExpression(SymbolicError):
    """Division by an expression that is identically zero."""


class UnknownSymbolError(SymbolicError):
    """A name that does not exist in the symbol environment."""


def _cancel(num, den):
    """``num/den`` in lowest terms, the denominator's grevlex leading
    coefficient positive.  Raises :class:`HeuristicGCDFailed` when the
    heuristic GCD runs out of evaluation points."""
    _, num, den = cofactors(num, den)
    if den.LC < 0:
        return -num, -den
    return num, den


class SymbolEnv(namedtuple("SymbolEnv", ("coordinates", "parameters"))):
    """Fixed, ordered universe of symbols an expression may mention: the
    parameters, then the coordinates, each one generator of the ring.
    Equal and hashed by value; its fields are read-only."""

    def __new__(cls, coordinates, parameters=()):
        coordinates, parameters = tuple(coordinates), tuple(parameters)
        names = parameters + coordinates
        if len(set(names)) != len(names):
            raise UnknownSymbolError("coordinate/parameter names must be unique")
        return super().__new__(cls, coordinates, parameters)

    @cached_property
    def gen_names(self) -> tuple:
        return self.parameters + self.coordinates

    @cached_property
    def ring(self):
        return poly_ring(len(self.gen_names))

    @cached_property
    def basis(self) -> "CoprimeBasis":
        """The coprime basis of the denominators this instance's arithmetic
        has met.  It belongs to the instance, not to its value: an equal env
        built separately starts its own, and a pickled env arrives without
        one."""
        return CoprimeBasis(self.ring)

    def __reduce__(self):
        # Only the fields travel; the ring and the basis are rebuilt on use.
        return SymbolEnv, (self.coordinates, self.parameters)

    def gen_index(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise UnknownSymbolError("unknown symbol %r" % name) from None

    # Convenience constructors -------------------------------------------

    def integer(self, n: int) -> "Expr":
        return Expr(self, self.ring.ground_new(int(n)), self.ring.one)

    def symbol(self, name: str) -> "Expr":
        i = self.gen_index(name)
        return Expr(self, self.ring.gens[i], self.ring.one)

    def zero(self) -> "Expr":
        return Expr(self, self.ring.zero, self.ring.one)

    def one(self) -> "Expr":
        return Expr(self, self.ring.one, self.ring.one)


class Expr:
    """Canonical exact expression; immutable once constructed.

    Use :meth:`make` (or the :class:`SymbolEnv` helpers and operators) to
    build values; the bare constructor trusts its inputs to be canonical.
    """

    __slots__ = ("env", "num", "den")

    def __init__(self, env: SymbolEnv, num, den):
        self.env = env
        self.num = num
        self.den = den

    @classmethod
    def make(cls, env: SymbolEnv, num, den) -> "Expr":
        """Canonicalize a raw numerator/denominator pair of ring polynomials."""
        if not den:
            raise DivisionByZeroExpression("denominator is the zero expression")
        if not num:
            return cls(env, env.ring.zero, env.ring.one)
        num, den = _cancel(num, den)
        return cls(env, num, den)

    # Introspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def term_count(self) -> int:
        """Number of monomials in the canonical numerator (0 for zero)."""
        return len(self.num)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.env == other.env and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.env, self.num, self.den))

    # Arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            return other
        if isinstance(other, int):
            return self.env.integer(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # a zero operand leaves the other canonical
        if not other.num:
            return self
        if not self.num:
            return other
        one = self.env.ring.one
        if self.den == one and other.den == one:
            # a sum of polynomials is canonical as-is
            return Expr(self.env, self.num + other.num, self.den)
        total = RawSum(self.env)
        total.add_product((self,))
        total.add_product((other,))
        return total.value()

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, int):
            values, coefficient = (self,), other
        elif isinstance(other, Expr):
            values, coefficient = (self, other), 1
        else:
            return NotImplemented
        total = RawSum(self.env)
        total.add_product(values, coefficient)
        return total.value()

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise DivisionByZeroExpression("division by zero expression")
        return self * other ** -1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return Expr(self.env, -self.num, self.den)

    def __pow__(self, exponent: int):
        # Powers of coprime polynomials stay coprime, and a positive leading
        # coefficient stays positive: the power is canonical without a GCD.
        if not isinstance(exponent, int):
            raise SymbolicError("exponent must be an integer, got %r" % (exponent,))
        if exponent == 0:
            return self.env.one()
        num, den = self.num, self.den
        if exponent < 0:
            if not num:
                raise DivisionByZeroExpression("zero expression to a negative power")
            num, den = (den, num) if num.LC > 0 else (-den, -num)
            exponent = -exponent
        elif not num:
            return self.env.zero()
        return Expr(self.env, num ** exponent, den ** exponent)

    def diff(self, coordinate: str) -> "Expr":
        """Partial derivative by a coordinate (not a parameter), by the
        quotient rule over the factoring d = c * prod(b_i**e_i) of the
        denominator on the env's basis:

            (n/d)' = n'/d - sum of e_i n b_i' / (d b_i),

        one :class:`RawSum` whose common denominator is d * prod(b_i), not
        d**2."""
        if coordinate not in self.env.coordinates:
            raise UnknownSymbolError("cannot differentiate by %r" % coordinate)
        env = self.env
        i = env.gen_index(coordinate)
        dnum = self.num.diff(i)
        if self.den == env.ring.one:
            return Expr(env, dnum, self.den)
        basis = env.basis
        content, vector = basis.factor(self.den)
        total = RawSum(env)
        total.add_quotient(dnum, (content, vector))
        for j, (k, e) in enumerate(vector):
            db = basis.elements[k].diff(i)
            if db:
                over = vector[:j] + ((k, e + 1),) + vector[j + 1 :]
                total.add_quotient(self.num * db * -e, (content, over))
        return total.value()

    # Exact substitution ------------------------------------------------------

    def substitute(self, name: str, value) -> "Expr":
        """Replace one symbol by an exact rational constant."""
        gi = self.env.gen_index(name)
        value = Fraction(value)
        n_num, n_den = self.num.substitute(gi, value)
        d_num, d_den = self.den.substitute(gi, value)
        if not d_num:
            raise DivisionByZeroExpression(
                "denominator becomes zero under %s=%s" % (name, value)
            )
        return Expr.make(self.env, n_num * d_den, d_num * n_den)

    # Rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        num = _format_poly(self.env, self.num)
        if self.den == self.env.ring.one:
            return num
        return "(%s)/(%s)" % (num, _format_poly(self.env, self.den))

    def __repr__(self) -> str:
        return "Expr(%s)" % self

    # Pickling (polynomials are rebuilt in the receiving process) ------------

    def __reduce__(self):
        return _restore_expr, (self.env, list(self.num.items()), list(self.den.items()))


def _restore_expr(env, num_terms, den_terms):
    ring = env.ring
    return Expr(env, ring.new(dict(num_terms)), ring.new(dict(den_terms)))


def _format_poly(env: SymbolEnv, p) -> str:
    if not p:
        return "0"
    names = env.gen_names
    parts = []
    for mon, coeff in p.terms():
        c = int(coeff)
        factors = []
        for i, e in enumerate(mon):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s**%d" % (names[i], e))
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


class RawSum:
    """Accumulator for a sum of products of canonical expressions.

    Each product is cancelled before it is multiplied
    (``CoprimeBasis.cancel`` on the env's basis): an element power that one
    factor's denominator shares with another factor's numerator is divided
    out of both, memoised per (numerator, element).  Only the cancelled
    numerators are multiplied out.  Products are grouped by the factoring
    of what is left of their denominators over the basis, ``(content,
    ((index, exponent), ...))``, and each group's numerators are summed.
    :meth:`value` brings the groups over their least common denominator
    and divides element powers back out (``CoprimeBasis.sum_quotients``);
    a sum of one product has no such lift, and each element left in its
    denominator is certified coprime to the numerator, by the irreducibility
    certificate or else by an exact division and ``poly._coprime``.  When
    an element cannot be certified, one ``Expr.make`` cancels what is left.
    The result is the canonical sum (see the module docstring).

    The group keys index the basis's ``elements`` list as it was when they
    were made; a refinement that splits an element (by any sum on the env)
    gives the basis a new list, and the groups are then factored again over
    it (``CoprimeBasis.refactor``).
    """

    __slots__ = ("env", "_groups", "_elements", "_lone")

    def __init__(self, env: SymbolEnv):
        self.env = env
        self._groups = {}
        self._elements = None  # the basis's elements list the keys index
        self._lone = False  # whether the sum holds exactly one product

    def add_product(self, values: Iterable[Expr], coefficient: int = 1) -> None:
        """Add the integer ``coefficient`` times the product of ``values``,
        cancelled; a zero factor adds nothing."""
        factors = []
        for v in values:
            if not v.num:
                return
            factors.append((v.num, v.den))
        content, vector, nums = self.env.basis.cancel(factors)
        num = nums[0]
        for other in nums[1:]:
            num = num * other
        if coefficient != 1:
            num = num * coefficient
        lone = not self._groups
        self._add((content, vector), num)
        self._lone = lone

    def add_quotient(self, num, factored: tuple) -> None:
        """Add the raw quotient of the polynomial ``num`` by the
        denominator factored as ``(content, vector)`` over the env's basis
        as it is now."""
        self._add(factored, num)
        self._lone = False

    def _add(self, key: tuple, num) -> None:
        basis = self.env.basis
        if self._elements is not basis.elements:
            self._refactor(basis)
        prior = self._groups.get(key)
        self._groups[key] = num if prior is None else prior + num

    def _refactor(self, basis) -> None:
        """Key the groups over the basis's current elements.  Each earlier
        element is a product of current ones, so factoring it refines
        nothing and the new keys all index the current list.  A piece of a
        split element may divide a numerator that the element did not, so
        a lone product is certified as a sum from then on."""
        old, self._elements = self._elements, basis.elements
        if old is None:
            return
        self._lone = False
        groups, self._groups = self._groups, {}
        for (content, vector), num in groups.items():
            key = basis.refactor(content, vector, old)
            prior = self._groups.get(key)
            self._groups[key] = num if prior is None else prior + num

    def value(self) -> Expr:
        """The canonical sum; zero when nothing was added."""
        env = self.env
        basis = env.basis
        if self._elements is not basis.elements:
            self._refactor(basis)
        groups = [(key, num) for key, num in self._groups.items() if num]
        if not groups:
            return env.zero()
        num, den, reduced = basis.sum_quotients(groups, self._lone)
        if reduced:
            return Expr(env, num, den)
        return Expr.make(env, num, den)


def sum_by_key(env: SymbolEnv, products: Iterable) -> dict:
    """The canonical sum of each key's products, from ``(key, factors,
    coefficient)`` triples: one :class:`RawSum` per key, keys in the order
    first met.  A key whose products all vanish maps to zero."""
    sums = {}
    for key, factors, coefficient in products:
        total = sums.get(key)
        if total is None:
            total = sums[key] = RawSum(env)
        total.add_product(factors, coefficient)
    return {key: total.value() for key, total in sums.items()}
