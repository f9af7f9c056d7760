"""Exact rational-trigonometric expressions over a fixed symbol environment.

An expression is a quotient of two multivariate polynomials with integer
coefficients over the environment's generators: parameters, coordinates,
and a ``sin(x)``/``cos(x)`` symbol pair for each trigonometric coordinate.
Every value handed out by this module is in canonical form:

* both polynomials are fully expanded with the single rewrite
  ``sin(x)**2 -> 1 - cos(x)**2`` applied, so each sine symbol appears at
  degree <= 1;
* the denominator is free of sine symbols (cleared by conjugate
  multiplication), shares no factor with the numerator, and has a positive
  leading coefficient under the fixed graded monomial order.

Canonical forms are unique: two expressions equal as rational functions
modulo ``sin**2 + cos**2 = 1`` compare equal componentwise.  In particular
an expression is zero exactly when its numerator is the zero polynomial.

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

Every sum of products in the package goes through :class:`RawSum`: the
tensor builders, the parcel sum, the merge of the parcel partials and the
free-index contraction.  It canonicalises once per sum rather than once
per ``*`` and ``+``.  Only the numerators of a product are multiplied out;
its denominators stay canonical and name its group.  To bring the groups
over a common denominator without a GCD, each :class:`SymbolEnv`
instance keeps a coprime basis of the denominators its sums have met
(:class:`CoprimeBasis`, factor refinement: Bach, Driscoll and Shallit,
J. Algorithms 14, 1993; Bernstein, J. Algorithms 54, 2005).  Each
denominator factors over it as an integer content times basis powers, so
the least common denominator is a componentwise maximum and each group's
cofactor a product of cached basis powers.  The sum is then divided
exactly by basis elements as far as it goes, and one ``Expr.make``
cancels what is left.  All of this is exact polynomial arithmetic, so
the raw quotient is the sum of the products as a rational function.
Canonical forms are unique, so that one ``Expr.make`` gives, byte for
byte, the expression that summing the canonical products one by one
gives, whatever the basis looks like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .poly import SymbolicError, _exquo, cofactors, poly_ring


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
    """Fixed, ordered universe of symbols an expression may mention.

    ``trig_pairs`` names the coordinates x for which the paired symbols
    sin(x), cos(x) exist; only those coordinates may appear inside
    trigonometric functions.
    """

    coordinates: tuple
    parameters: tuple = ()
    trig_pairs: frozenset = frozenset()

    def __post_init__(self):
        coords = tuple(self.coordinates)
        params = tuple(self.parameters)
        trig = frozenset(self.trig_pairs)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "trig_pairs", trig)
        names = params + coords
        if len(set(names)) != len(names):
            raise UnknownSymbolError("coordinate/parameter names must be unique")
        unknown = trig - set(coords)
        if unknown:
            raise UnknownSymbolError(
                "trig pairs must attach to coordinates, got %s" % sorted(unknown)
            )

    @cached_property
    def gen_names(self) -> tuple:
        names = list(self.parameters) + list(self.coordinates)
        for x in self.coordinates:
            if x in self.trig_pairs:
                names.append("sin(%s)" % x)
                names.append("cos(%s)" % x)
        return tuple(names)

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
        return SymbolEnv, (self.coordinates, self.parameters, self.trig_pairs)

    def gen_index(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise UnknownSymbolError("unknown symbol %r" % name) from None

    @cached_property
    def trig_indices(self) -> tuple:
        """(sin, cos) generator index pairs, in coordinate order."""
        pairs = []
        base = len(self.parameters) + len(self.coordinates)
        k = 0
        for x in self.coordinates:
            if x in self.trig_pairs:
                pairs.append((base + 2 * k, base + 2 * k + 1))
                k += 1
        return tuple(pairs)

    # Convenience constructors -------------------------------------------

    def integer(self, n: int) -> "Expr":
        return Expr(self, self.ring.ground_new(int(n)), self.ring.one)

    def symbol(self, name: str) -> "Expr":
        i = self.gen_index(name)
        return Expr(self, self.ring.gens[i], self.ring.one)

    def sin(self, coordinate: str) -> "Expr":
        if coordinate not in self.trig_pairs:
            raise UnknownSymbolError("no trig pair for %r" % coordinate)
        return self.symbol("sin(%s)" % coordinate)

    def cos(self, coordinate: str) -> "Expr":
        if coordinate not in self.trig_pairs:
            raise UnknownSymbolError("no trig pair for %r" % coordinate)
        return self.symbol("cos(%s)" % coordinate)

    def zero(self) -> "Expr":
        return Expr(self, self.ring.zero, self.ring.one)

    def one(self) -> "Expr":
        return Expr(self, self.ring.one, self.ring.one)


def _sine_reduce(env: SymbolEnv, p):
    """Rewrite sin(x)**k with k >= 2 to sin(x)**(k%2) * (1-cos(x)**2)**(k//2)."""
    if not p or not env.trig_indices:
        return p
    R = env.ring
    # A sine's field in the OR of the monomials has a bit above its lowest
    # set exactly when some exponent of that sine is >= 2; rewriting one
    # sine changes only the fields of that sine and its cosine.
    support = p.support()
    for si, ci in env.trig_indices:
        s, mask = R.shifts[si], R.masks[si]
        if not support & mask & ~(1 << s):
            continue
        cos2 = 2 << R.shifts[ci]
        out = {}
        get = out.get
        for mon, coeff in p.items():
            # (1 - cos**2)**k is the sum over j of (-1)**j C(k, j) cos**(2j)
            e = mon & mask
            k, r = divmod(e >> s, 2)
            key = mon - e + (r << s)
            for j in range(k + 1):
                out[key] = get(key, 0) + (-1) ** j * math.comb(k, j) * coeff
                key += cos2
        p = R.new(out)
    return p


def _split_on_sine(R, p, si):
    """Write p = A + B*s for the sine generator at index si (degree <= 1)."""
    a = {}
    b = {}
    mask = R.masks[si]
    for mon, coeff in p.items():
        e = mon & mask
        if e:
            b[mon - e] = coeff
        else:
            a[mon] = coeff
    return R.new(a), R.new(b)


def _clear_sines_from_denominator(env: SymbolEnv, num, den):
    # Multiplying by the conjugate A - B*s turns the denominator A + B*s
    # into A**2 - B**2*(1 - cos**2).  Conjugations never bring a sine into
    # the denominator, so one OR over its monomials finds every sine to
    # clear; a sine can still cancel out along the way, leaving B = 0.
    R = env.ring
    support = den.support()
    for si, ci in env.trig_indices:
        if not support & R.masks[si]:
            continue
        a, b = _split_on_sine(R, den, si)
        if not b:
            continue
        num = _sine_reduce(env, num * (a - b * R.gens[si]))
        den = _sine_reduce(env, a * a - b * b * (R.one - R.gens[ci] ** 2))
    return num, den


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
        num = _sine_reduce(env, num)
        if not num:
            return cls(env, env.ring.zero, env.ring.one)
        den = _sine_reduce(env, den)
        num, den = _clear_sines_from_denominator(env, num, den)
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
                # sum of sine-reduced polynomials is canonical as-is
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
        if not isinstance(exponent, int):
            raise SymbolicError("exponent must be an integer, got %r" % (exponent,))
        if exponent == 0:
            return self.env.one()
        if exponent < 0:
            if not self.num:
                raise DivisionByZeroExpression("zero expression to a negative power")
            return Expr.make(self.env, self.den ** (-exponent), self.num ** (-exponent))
        return Expr.make(self.env, self.num ** exponent, self.den ** exponent)

    def diff(self, coordinate: str) -> "Expr":
        """Partial derivative; sin/cos pairs follow the chain rule."""
        if coordinate not in self.env.coordinates:
            raise UnknownSymbolError("cannot differentiate by %r" % coordinate)
        dnum = _env_derivative(self.env, self.num, coordinate)
        dden = _env_derivative(self.env, self.den, coordinate)
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


def _env_derivative(env: SymbolEnv, p, coordinate: str):
    R = env.ring
    result = p.diff(env.gen_index(coordinate))
    if coordinate in env.trig_pairs:
        si = env.gen_index("sin(%s)" % coordinate)
        ci = env.gen_index("cos(%s)" % coordinate)
        result = result + p.diff(si) * R.gens[ci] - p.diff(ci) * R.gens[si]
    return result


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
    """

    __slots__ = ("ring", "elements", "generation", "_factors", "_powers")

    def __init__(self, ring):
        self.ring = ring
        self.elements = []
        self.generation = 0
        self._factors = {}  # denominator -> (generation, content, vector)
        self._powers = {}  # element -> [element**0, element**1, ...]

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
    common denominator, divides the sum exactly by basis elements as far
    as it goes and runs one ``Expr.make``; the result is the canonical sum
    (see the module docstring).
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
        total = _sine_reduce(env, total)
        if not total:
            return env.zero()
        # Cancel whole basis powers and the integer content by exact
        # division; Expr.make then cancels what is left.
        num = total
        den = R.one
        for i, e in lcd.items():
            b = basis.elements[i]
            while e:
                q = _exquo(num, b, R.guard)
                if q is None:
                    break
                num, e = q, e - 1
            if e:
                den = den * basis.power(i, e)
        common = math.gcd(content, *num.values())
        if common > 1:
            num = {m: c // common for m, c in num.items()}
        if num is not total:
            num = R.new(num)
        return Expr.make(env, num, den * (content // common))
