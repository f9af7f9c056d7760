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

Polynomials are :class:`curvinv.poly.Poly` values in the env's ring: dicts
from packed monomials (one int, a fixed-width exponent field per
generator) to Python ints, ranked by the graded reverse lexicographic
(grevlex) order that fixes the canonical sign.  This module reads and
writes exponents through the ring's ``shifts`` and ``masks``, or through
the exponent tuples of :meth:`~curvinv.poly.Poly.terms`.  The GCD that
cancels numerator against denominator is ``curvinv.poly.cofactors``, a port
of sympy's heuristic GCD (heugcd: Char, Geddes and Gonnet, J. Symbolic
Comput. 7, 1989).  Over ZZ the reduced cofactors are unique up to one
common sign, so re-applying the grevlex sign rule gives the unique
canonical form.

Every sum of products in the package goes through :class:`RawSum`.  A
single sum (a Christoffel or Riemann component, the coordinator's one
partial, the merge of the partials) fills one directly; a sum grouped by
key (a raised or differentiated field, and ``contraction.keyed_products``,
the products of a contraction plan's entries over its own tensors, whole
in the free-index contraction and one parcel's in a pool worker) goes
through :func:`sum_by_key`, one ``RawSum`` per key.  A
``RawSum`` canonicalises once per sum rather than once per ``*`` and
``+``.  Only the numerators of a product are multiplied out; its
denominators stay canonical and name its group.  To bring the groups over
a common denominator without a GCD, each :class:`SymbolEnv`
instance keeps a coprime basis of the denominators its sums have met
(:class:`CoprimeBasis`, factor refinement: Bach, Driscoll and Shallit,
J. Algorithms 14, 1993; Bernstein, J. Algorithms 54, 2005).  Each
denominator factors over it as an integer content times basis powers, so
the least common denominator is a componentwise maximum and each group's
cofactor a product of cached basis powers.  The sum is then divided
exactly by basis elements as far as it goes, so each element left in
the denominator failed an exact division of the numerator.  When that
element is certified irreducible (a test run once per element: linear,
or quadratic with a discriminant that is no square, in a variable in
which its content is a unit), the failed division proves it coprime to
the numerator.  Otherwise a GCD with the element, taken over the
numerator's coefficients in that element's variables, proves it, or
else one ``Expr.make`` cancels what is left.  All of this is exact
polynomial arithmetic, so the raw quotient is the sum of the products as
a rational function.  Canonical forms are unique, so the result is, byte
for byte, the expression that summing the canonical products one by one
gives, whatever the basis looks like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .poly import SymbolicError, _exquo, _support, cofactors, poly_ring


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


@dataclass(frozen=True)
class SymbolEnv:
    """Fixed, ordered universe of symbols an expression may mention: the
    parameters, then the coordinates, each one generator of the ring."""

    coordinates: tuple
    parameters: tuple = ()

    def __post_init__(self):
        coords = tuple(self.coordinates)
        params = tuple(self.parameters)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "parameters", params)
        names = params + coords
        if len(set(names)) != len(names):
            raise UnknownSymbolError("coordinate/parameter names must be unique")

    @cached_property
    def gen_names(self) -> tuple:
        return self.parameters + self.coordinates

    @cached_property
    def ring(self):
        return poly_ring(len(self.gen_names))

    @cached_property
    def basis(self) -> "CoprimeBasis":
        """The coprime basis of the denominators this instance's sums have
        met.  It belongs to the instance, not to its value: an equal env
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
        # a zero operand leaves the other canonical; make would redo its GCD
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            if self.den == self.env.ring.one:
                # a sum of polynomials is canonical as-is
                return Expr(self.env, self.num + other.num, self.den)
            return Expr.make(self.env, self.num + other.num, self.den)
        return Expr.make(
            self.env,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Expr.make(self.env, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise DivisionByZeroExpression("division by zero expression")
        return Expr.make(self.env, self.num * other.den, self.den * other.num)

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
        """Partial derivative by a coordinate (not a parameter)."""
        if coordinate not in self.env.coordinates:
            raise UnknownSymbolError("cannot differentiate by %r" % coordinate)
        i = self.env.gen_index(coordinate)
        dnum = self.num.diff(i)
        dden = self.den.diff(i)
        if not dden:
            return Expr.make(self.env, dnum, self.den)
        return Expr.make(
            self.env, dnum * self.den - self.num * dden, self.den * self.den
        )

    # Exact substitution ------------------------------------------------------

    def substitute(self, name: str, value) -> "Expr":
        """Replace one symbol by an exact rational constant."""
        gi = self.env.gen_index(name)
        value = Fraction(value)
        n_num, n_den = _subst_poly(self.env.ring, self.num, gi, value)
        d_num, d_den = _subst_poly(self.env.ring, self.den, gi, value)
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


def _subst_poly(R, p, gi: int, value: Fraction):
    """Substitute gen gi := value; returns (poly, positive int denominator)."""
    acc = {}
    s, mask = R.shifts[gi], R.masks[gi]
    for mon, coeff in p.items():
        e = mon & mask
        key = mon - e
        acc[key] = acc.get(key, Fraction(0)) + coeff * value ** (e >> s)
    denom = math.lcm(*(q.denominator for q in acc.values()))
    return R.new({m: int(q * denom) for m, q in acc.items()}), denom


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


def _is_constant(p) -> bool:
    return len(p) == 1 and 0 in p


def _is_unit(p) -> bool:
    return _is_constant(p) and abs(p[0]) == 1


def _coprime(p, b) -> bool:
    """Whether ``p`` and the primitive ``b`` share no factor but a unit.

    A factor of ``b`` mentions only ``b``'s variables, and divides ``p``
    exactly when it divides each coefficient of ``p`` written as a
    polynomial in the other variables.  So the GCD is taken with those
    coefficients, small polynomials in ``b``'s variables, one at a time
    until it is a unit."""
    R = b.ring
    used = _support(b)
    mask = 0
    for field in R.masks:
        if used & field:
            mask |= field
    coefficients = {}
    for m, c in p.items():
        coefficients.setdefault(m & ~mask, {})[m & mask] = c
    h = b
    for coefficient in coefficients.values():
        h = cofactors(R.new(coefficient), h)[0]
        if _is_constant(h):
            return True
    return False


def _certified_irreducible(b) -> bool:
    """Whether ``b`` passes a sufficient test of irreducibility over ZZ.

    It passes when, in some variable v, its coefficients (polynomials in
    the other variables) have a unit GCD, and it is of degree 1 in v, or
    of degree 2 with a discriminant B**2 - 4AC that is negative or not a
    perfect square at a fixed integer point.  A linear polynomial has no
    proper factor of positive degree, and a quadratic one only linear
    factors, which need a square root of the discriminant; so ``b`` is
    irreducible over the field of fractions of the other variables, and,
    its content in v being a unit, over ZZ by Gauss's lemma.  A unit
    content also makes ``b`` primitive."""
    R = b.ring
    used = _support(b)
    candidates = []
    for s, field in zip(R.shifts, R.masks):
        if used & field:
            degree = max(m & field for m in b) >> s
            if degree <= 2:
                candidates.append((degree, s, field))
    for degree, s, field in sorted(candidates):
        coefficients = [{} for _ in range(degree + 1)]
        for m, c in b.items():
            coefficients[(m & field) >> s][m & ~field] = c
        content = None
        for coefficient in coefficients:
            if coefficient:
                coefficient = R.new(coefficient)
                content = coefficient if content is None else cofactors(coefficient, content)[0]
                if _is_unit(content):
                    break
        if not _is_unit(content):
            continue
        if degree == 1:
            return True
        C, B, A = (_at_point(R, coefficient) for coefficient in coefficients)
        discriminant = B * B - 4 * A * C
        if discriminant < 0 or math.isqrt(discriminant) ** 2 != discriminant:
            return True
    return False


def _at_point(R, p: dict) -> int:
    """``p`` at the fixed point where variable i is i + 2."""
    total = 0
    for m, c in p.items():
        for i, e in enumerate(R.exponents(m)):
            if e:
                c *= (i + 2) ** e
        total += c
    return total


class CoprimeBasis:
    """A gcd-free basis of denominators, and each denominator's factoring
    over it.

    ``elements`` are pairwise coprime, primitive polynomials with a
    positive grevlex leading coefficient.  :meth:`factor` writes a
    denominator as an integer content times powers of the elements,
    ``(content, ((index, exponent), ...))``, by exact trial division.  A
    denominator that the elements do not generate refines the basis:
    what is left after trial division is split against each element by
    its GCD until every piece is coprime to the rest.  A refinement that
    splits an element renumbers the basis and bumps ``generation``;
    factorings made under an older generation are stale and are
    recomputed when next asked for.  A refinement that only appends an
    element coprime to all others leaves every earlier factoring exact.

    :meth:`irreducible` tells whether an element passes a sufficient test
    of irreducibility, run once per element polynomial.  An element that
    passes and does not divide a polynomial is coprime to it.
    """

    __slots__ = ("ring", "elements", "generation", "_factors", "_powers", "_irreducible")

    def __init__(self, ring):
        self.ring = ring
        self.elements = []
        self.generation = 0
        self._factors = {}  # denominator -> (generation, content, vector)
        self._powers = {}  # element -> [element**0, element**1, ...]
        self._irreducible = {}  # element -> whether it is certified irreducible

    def irreducible(self, b) -> bool:
        """Whether the element ``b`` is certified irreducible (see
        ``_certified_irreducible``); False says only that the test did not
        prove it.  Memoised by the polynomial, so renumbering is harmless."""
        known = self._irreducible.get(b)
        if known is None:
            known = self._irreducible[b] = _certified_irreducible(b)
        return known

    def factor(self, den) -> tuple:
        """``(content, vector)`` with ``den`` the content times the product
        of ``elements[i] ** e`` over the ``(i, e)`` pairs of the vector."""
        cached = self._factors.get(den)
        if cached is not None and cached[0] == self.generation:
            return cached[1], cached[2]
        while True:
            content, vector, rest = self._divide(den)
            if rest is None:
                break
            self._refine(rest)
        self._factors[den] = (self.generation, content, vector)
        return content, vector

    def factor_product(self, dens) -> tuple:
        """:meth:`factor` of the product of ``dens``."""
        if len(dens) == 1:
            return self.factor(dens[0])
        content = 1
        exponents = {}
        for den in dens:
            c, vector = self.factor(den)
            content *= c
            for i, e in vector:
                exponents[i] = exponents.get(i, 0) + e
        return content, tuple(sorted(exponents.items()))

    def power(self, i: int, k: int):
        """``elements[i] ** k``, cached."""
        b = self.elements[i]
        powers = self._powers.get(b)
        if powers is None:
            powers = self._powers[b] = [self.ring.one, b]
        while len(powers) <= k:
            powers.append(powers[-1] * b)
        return powers[k]

    def _divide(self, den):
        """Trial-divide ``den`` by the elements: its content, its vector,
        and what is left when that is not a unit (else None)."""
        content = math.gcd(*den.values())
        p = {m: c // content for m, c in den.items()}
        guard = self.ring.guard
        vector = []
        for i, b in enumerate(self.elements):
            e = 0
            while True:
                q = _exquo(p, b, guard)
                if q is None:
                    break
                p, e = q, e + 1
            if e:
                vector.append((i, e))
        if _is_constant(p):
            # a unit; -1 when den's sign is not the canonical one
            return content * p[0], tuple(vector), None
        return content, tuple(vector), self.ring.new(p)

    def _refine(self, new) -> None:
        """Make the basis generate ``new`` too (primitive, not a unit)."""
        elements = self.elements
        pending = [new]
        split = False
        while pending:
            a = pending.pop()
            for i, b in enumerate(elements):
                g, a_rest, b_rest = cofactors(a, b)
                if not _is_constant(g):
                    # a = g a_rest and b = g b_rest: b gives way to the pieces
                    del elements[i]
                    self._powers.pop(b, None)
                    split = True
                    for piece in (g, a_rest, b_rest):
                        if not _is_constant(piece):
                            pending.append(-piece if piece.LC < 0 else piece)
                    break
            else:
                elements.append(a)
        if split:
            self.generation += 1


class RawSum:
    """Accumulator for a sum of products of canonical expressions.

    It maps the sorted tuple of each product's non-unit canonical
    denominators to the sum of the raw numerators of that group.  No
    denominator is multiplied out.  :meth:`value` factors each group over
    the env's :class:`CoprimeBasis`, brings the groups over their least
    common denominator and divides the sum exactly by basis elements as
    far as it goes.  Each element left in the denominator failed that
    division; it is coprime to the numerator when it is certified
    irreducible (:meth:`CoprimeBasis.irreducible`), else when
    ``_coprime`` proves it, and otherwise one ``Expr.make`` cancels what
    is left.  The result is the canonical sum (see the module docstring).
    """

    __slots__ = ("env", "_groups")

    def __init__(self, env: SymbolEnv):
        self.env = env
        self._groups = {}

    def add_product(self, values: Iterable[Expr], coefficient: int = 1) -> None:
        """Add the integer ``coefficient`` times the product of ``values``,
        raw; a zero factor adds nothing."""
        num = None
        dens = []
        for v in values:
            if not v.num:
                return
            num = v.num if num is None else num * v.num
            den = v.den
            if len(den) > 1 or den.get(0) != 1:
                dens.append(den)
        if coefficient != 1:
            num = num * coefficient
        key = tuple(sorted(dens, key=hash)) if len(dens) > 1 else tuple(dens)
        prior = self._groups.get(key)
        self._groups[key] = num if prior is None else prior + num

    def value(self) -> Expr:
        """The canonical sum; zero when nothing was added."""
        env = self.env
        groups = [(dens, num) for dens, num in self._groups.items() if num]
        if not groups:
            return env.zero()
        basis = env.basis
        # Factoring may split a basis element, which renumbers the basis:
        # factor every group again until a pass leaves the basis as it was.
        while True:
            generation = basis.generation
            factored = [basis.factor_product(dens) for dens, _ in groups]
            if basis.generation == generation:
                break
        merged = {}
        for key, (_, num) in zip(factored, groups):
            prior = merged.get(key)
            merged[key] = num if prior is None else prior + num
        merged = {key: num for key, num in merged.items() if num}
        if not merged:
            return env.zero()
        content = math.lcm(*(c for c, _ in merged))
        lcd = {}
        for _, vector in merged:
            for i, e in vector:
                if e > lcd.get(i, 0):
                    lcd[i] = e
        R = env.ring
        if len(merged) == 1:
            (total,) = merged.values()
        else:
            total = R.zero
            for (c, vector), num in merged.items():
                have = dict(vector)
                cofactor = R.ground_new(content // c)
                for i, e in lcd.items():
                    if e > have.get(i, 0):
                        cofactor = cofactor * basis.power(i, e - have.get(i, 0))
                total = total + num * cofactor
        if not total:
            return env.zero()
        # Cancel whole basis powers and the integer content by exact
        # division.  What is left of the denominator is an integer coprime
        # to the numerator's content times powers of pairwise coprime basis
        # elements, so the numerator is coprime to it when it is coprime to
        # each of those elements.  Each such element failed its last exact
        # division, so a certified irreducible one is coprime; any other
        # is checked by _coprime, and only when one shares a factor does
        # Expr.make cancel it.
        num = total
        den = R.one
        leftover = []
        for i, e in lcd.items():
            b = basis.elements[i]
            while e:
                q = _exquo(num, b, R.guard)
                if q is None:
                    break
                num, e = q, e - 1
            if e:
                den = den * basis.power(i, e)
                leftover.append(b)
        common = math.gcd(content, *num.values())
        if common > 1:
            num = {m: c // common for m, c in num.items()}
        if num is not total:
            num = R.new(num)
        den = den * (content // common)
        for b in leftover:
            if not basis.irreducible(b) and not _coprime(num, b):
                return Expr.make(env, num, den)
        # primitive elements with a positive leading coefficient and a
        # positive content: the denominator is canonical
        return Expr(env, num, den)


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
