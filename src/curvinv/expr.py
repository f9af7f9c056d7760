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
per ``*`` and ``+``.  Each product's numerator and denominator are
multiplied out raw, and the raw numerators are added up per raw
denominator.  The groups are then brought over their least common
denominator, and one ``Expr.make`` cancels the result.  All of this is
exact polynomial arithmetic, so the raw quotient is the sum of the
products as a rational function.  Canonical forms are unique, so that one
``Expr.make`` gives, byte for byte, the expression that summing the
canonical products one by one gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .poly import SymbolicError, cofactors, poly_ring


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


class RawSum:
    """Accumulator for a sum of products of canonical expressions.

    It maps each raw denominator polynomial (the product of the factors'
    denominators) to the sum of its raw numerators.  Groups are dict keys,
    so two denominators share a group only when they are equal as
    polynomials.  :meth:`value` brings the groups over their least common
    denominator and runs one ``Expr.make``; the result is the canonical sum
    (see the module docstring).
    """

    __slots__ = ("env", "_groups")

    def __init__(self, env: SymbolEnv):
        self.env = env
        self._groups = {}

    def add_product(self, values: Iterable[Expr], coefficient: int = 1) -> None:
        """Add the integer ``coefficient`` times the product of ``values``,
        raw; a zero factor adds nothing."""
        num = den = None
        for v in values:
            if not v.num:
                return
            if num is None:
                num, den = v.num, v.den
            else:
                num, den = num * v.num, den * v.den
        if coefficient != 1:
            num = num * coefficient
        prior = self._groups.get(den)
        self._groups[den] = num if prior is None else prior + num

    def value(self) -> Expr:
        """The canonical sum; zero when nothing was added."""
        groups = [(num, den) for den, num in self._groups.items() if num]
        if not groups:
            return self.env.zero()
        num, den = groups[0]
        for n, d in groups[1:]:
            _, a, b = cofactors(den, d)
            num, den = num * b + n * a, den * b
        return Expr.make(self.env, num, den)
