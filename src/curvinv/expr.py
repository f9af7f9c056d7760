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

The canonical form is defined by the grevlex ring, but the GCD that
cancels numerator against denominator runs on copies in a lex-ordered twin
ring over the same generators.  sympy's heuristic GCD spends almost all of
its time in trial divisions, and each division step searches for a leading
term: a plain ``max`` over exponent tuples in a lex ring, but a ``max``
keyed by a Python grevlex function otherwise (``leading_expv`` in
``sympy/polys/rings.py``).  Over ZZ the reduced cofactors are unique up to
one common sign, so mapping them back and re-applying the grevlex sign rule
gives exactly the grevlex ``cancel`` result.

Sums of products go through :class:`RawSum`, which canonicalises once per
distinct denominator rather than once per ``*`` and ``+``.  Each product's
numerator and denominator are multiplied out raw, and the raw numerators
are added up per raw denominator, which is exact polynomial arithmetic.
So each group's numerator over its denominator is exactly the group's sum
of products as a rational function, and the groups together are the whole
sum.  Canonical forms are unique, so ``Expr.make`` of each group and the
canonical sum of the groups give, byte for byte, the expression that
summing the canonical products one by one gives.  The components of a
tensor share few denominators (72 products of Kerr D=4 I_b at a=1 have 9),
so most GCDs are never run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

from sympy import Symbol
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grevlex, lex
from sympy.polys.rings import ring


class SymbolicError(Exception):
    """Base class for expression-layer failures."""


class DivisionByZeroExpression(SymbolicError):
    """Division by an expression that is identically zero."""


class UnknownSymbolError(SymbolicError):
    """A name that does not exist in the symbol environment."""


class EvaluationError(SymbolicError):
    """Numeric evaluation failed (missing symbol or vanishing denominator)."""


@lru_cache(maxsize=None)
def _ring_for(gen_names: tuple, order=grevlex):
    symbols = [Symbol(name) for name in gen_names]
    return ring(symbols, ZZ, order)[0]


def _cancel(env: "SymbolEnv", num, den):
    """``num.cancel(den)`` in the env's grevlex ring, with the GCD run in
    the lex twin ring (see the module docstring)."""
    R = env.ring
    L = _ring_for(env.gen_names, lex)
    _, num, den = L.dtype(num).cofactors(L.dtype(den))
    num, den = R.dtype(num), R.dtype(den)
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

    @property
    def gen_names(self) -> tuple:
        names = list(self.parameters) + list(self.coordinates)
        for x in self.coordinates:
            if x in self.trig_pairs:
                names.append("sin(%s)" % x)
                names.append("cos(%s)" % x)
        return tuple(names)

    @property
    def ring(self):
        return _ring_for(self.gen_names)

    def gen_index(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise UnknownSymbolError("unknown symbol %r" % name) from None

    def trig_indices(self) -> list:
        """(sin, cos) generator index pairs, in coordinate order."""
        pairs = []
        base = len(self.parameters) + len(self.coordinates)
        k = 0
        for x in self.coordinates:
            if x in self.trig_pairs:
                pairs.append((base + 2 * k, base + 2 * k + 1))
                k += 1
        return pairs

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
    R = env.ring
    for si, ci in env.trig_indices():
        if not p or p.degree(R.gens[si]) < 2:
            continue
        one_minus_c2 = R.one - R.gens[ci] ** 2
        powers = {}
        keep = {}
        rewritten = R.zero
        for mon, coeff in p.terms():
            e = mon[si]
            if e < 2:
                keep[mon] = coeff
                continue
            k, r = divmod(e, 2)
            if k not in powers:
                powers[k] = one_minus_c2 ** k
            stripped = list(mon)
            stripped[si] = r
            rewritten += R.from_dict({tuple(stripped): coeff}) * powers[k]
        p = R.from_dict(keep) + rewritten
    return p


def _split_on_sine(R, p, si):
    """Write p = A + B*s for the sine generator at index si (degree <= 1)."""
    a = {}
    b = {}
    for mon, coeff in p.terms():
        if mon[si]:
            stripped = list(mon)
            stripped[si] = 0
            b[tuple(stripped)] = coeff
        else:
            a[mon] = coeff
    return R.from_dict(a), R.from_dict(b)


def _clear_sines_from_denominator(env: SymbolEnv, num, den):
    # Multiplying by the conjugate A - B*s turns the denominator A + B*s
    # into A**2 - B**2*(1 - cos**2); once a sine symbol is cleared, later
    # conjugations cannot reintroduce it.
    R = env.ring
    for si, ci in env.trig_indices():
        s = R.gens[si]
        if den.degree(s) < 1:
            continue
        a, b = _split_on_sine(R, den, si)
        num = _sine_reduce(env, num * (a - b * s))
        den = _sine_reduce(env, a * a - b * b * (R.one - R.gens[ci] ** 2))
    return num, den


class Expr:
    """Canonical exact expression; immutable once constructed.

    Use :meth:`make` (or the :class:`SymbolEnv` helpers and operators) to
    build values; the bare constructor trusts its inputs to be canonical.
    """

    __slots__ = ("env", "num", "den", "_hash")

    def __init__(self, env: SymbolEnv, num, den):
        self.env = env
        self.num = num
        self.den = den
        self._hash = None

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
        num, den = _cancel(env, num, den)
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
        if self._hash is None:
            state = (
                self.env,
                tuple((m, int(c)) for m, c in self.num.terms()),
                tuple((m, int(c)) for m, c in self.den.terms()),
            )
            self._hash = hash(state)
        return self._hash

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
        if self.den == other.den:
            if self.den == self.env.ring.one:
                return Expr(self.env, self.num - other.num, self.den)
            return Expr.make(self.env, self.num - other.num, self.den)
        return Expr.make(
            self.env,
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

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

    # Exact evaluation / substitution ----------------------------------------

    def eval_rational(self, assignment: Mapping) -> Fraction:
        """Evaluate at exact rational symbol values; raises on a zero denominator.

        The assignment must cover every symbol present (keys are generator
        display names, e.g. ``"r"`` or ``"sin(theta)"``).
        """
        values = self._assignment_vector(assignment)
        num = _eval_poly(self.num, values)
        den = _eval_poly(self.den, values)
        if den == 0:
            raise EvaluationError("denominator vanishes at the given assignment")
        return num / den

    def _assignment_vector(self, assignment: Mapping) -> list:
        names = self.env.gen_names
        values = [None] * len(names)
        used = [False] * len(names)
        for poly in (self.num, self.den):
            for mon in poly.monoms():
                for i, e in enumerate(mon):
                    if e:
                        used[i] = True
        for i, name in enumerate(names):
            if not used[i]:
                values[i] = Fraction(0)
                continue
            if name not in assignment:
                raise EvaluationError("no value assigned to %r" % name)
            values[i] = Fraction(assignment[name])
        return values

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

    # Pickling (ring elements are rebuilt in the receiving process) -----------

    def __getstate__(self):
        return (
            self.env,
            [(m, int(c)) for m, c in self.num.terms()],
            [(m, int(c)) for m, c in self.den.terms()],
        )

    def __setstate__(self, state):
        env, num_terms, den_terms = state
        self.env = env
        self.num = env.ring.from_dict(dict(num_terms))
        self.den = env.ring.from_dict(dict(den_terms))
        self._hash = None

    def __reduce__(self):
        return (_restore_expr, (self.__getstate__(),))


def _restore_expr(state):
    e = object.__new__(Expr)
    e.__setstate__(state)
    return e


def _env_derivative(env: SymbolEnv, p, coordinate: str):
    R = env.ring
    result = p.diff(R.gens[env.gen_index(coordinate)])
    if coordinate in env.trig_pairs:
        si = env.gen_index("sin(%s)" % coordinate)
        ci = env.gen_index("cos(%s)" % coordinate)
        s, c = R.gens[si], R.gens[ci]
        result = result + p.diff(s) * c - p.diff(c) * s
    return result


def _eval_poly(p, values: list) -> Fraction:
    total = Fraction(0)
    for mon, coeff in p.terms():
        term = Fraction(int(coeff))
        for i, e in enumerate(mon):
            if e:
                term *= values[i] ** e
        total += term
    return total


def _subst_poly(R, p, gi: int, value: Fraction):
    """Substitute gen gi := value; returns (poly, positive int denominator)."""
    acc = {}
    for mon, coeff in p.terms():
        e = mon[gi]
        stripped = list(mon)
        stripped[gi] = 0
        key = tuple(stripped)
        acc[key] = acc.get(key, Fraction(0)) + int(coeff) * value ** e
    denom = 1
    for q in acc.values():
        denom = denom * q.denominator // _gcd(denom, q.denominator)
    cleared = {
        m: int(q * denom) for m, q in acc.items() if q != 0
    }
    return R.from_dict(cleared), denom


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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


Tree = Union[int, str, tuple, Expr]


def normalize(env: SymbolEnv, tree: Tree) -> Expr:
    """Canonicalize a raw expression tree.

    A tree is an integer, a symbol name (``"r"``, ``"sin(theta)"``), an
    already-canonical :class:`Expr`, or a tuple ``(op, *args)`` with op one
    of ``+ - * / ** neg``.  Equal inputs (as rational functions modulo the
    Pythagorean identity) normalize to identical values; the map is
    idempotent.
    """
    if isinstance(tree, Expr):
        if tree.env != env:
            raise UnknownSymbolError("expression belongs to a different environment")
        return tree
    if isinstance(tree, int):
        return env.integer(tree)
    if isinstance(tree, str):
        return env.symbol(tree)
    if isinstance(tree, tuple) and tree:
        op = tree[0]
        if op == "**":
            if len(tree) != 3 or not isinstance(tree[2], int):
                raise SymbolicError("power needs an integer exponent: %r" % (tree,))
            return normalize(env, tree[1]) ** tree[2]
        args = [normalize(env, a) for a in tree[1:]]
        if op == "+":
            out = env.zero()
            for a in args:
                out = out + a
            return out
        if op == "-":
            if len(args) == 1:
                return -args[0]
            out = args[0]
            for a in args[1:]:
                out = out - a
            return out
        if op == "neg" and len(args) == 1:
            return -args[0]
        if op == "*":
            out = env.one()
            for a in args:
                out = out * a
            return out
        if op == "/" and len(args) == 2:
            return args[0] / args[1]
        raise SymbolicError("malformed expression node %r" % (tree,))
    raise SymbolicError("unsupported expression leaf %r" % (tree,))


class RawSum:
    """Accumulator for a sum of products of canonical expressions.

    It maps each raw denominator polynomial (the product of the factors'
    denominators) to the sum of its raw numerators.  Groups are dict keys,
    so two denominators share a group only when they are equal as
    polynomials.  :meth:`value` runs one ``Expr.make`` per group and adds
    the groups with :func:`balanced_sum`; the result is the canonical sum
    (see the module docstring).
    """

    __slots__ = ("env", "_groups")

    def __init__(self, env: SymbolEnv):
        self.env = env
        self._groups = {}

    def add_product(self, values: Iterable[Expr], sign: int = 1) -> None:
        """Add ``sign`` (+1 or -1) times the product of ``values``, raw; a
        zero factor adds nothing."""
        num = den = None
        for v in values:
            if not v.num:
                return
            if num is None:
                num, den = v.num, v.den
            else:
                num, den = num * v.num, den * v.den
        if sign < 0:
            num = -num
        prior = self._groups.get(den)
        self._groups[den] = num if prior is None else prior + num

    def value(self) -> Expr:
        """The canonical sum; zero when nothing was added."""
        groups = (Expr.make(self.env, num, den) for den, num in self._groups.items())
        return balanced_sum([g for g in groups if g.num], self.env.zero())


def balanced_sum(values, zero: Expr) -> Expr:
    """Pairwise-tree summation; cheaper than a left fold when many addends
    share denominators."""
    layer = list(values)
    if not layer:
        return zero
    while len(layer) > 1:
        layer = [
            layer[i] + layer[i + 1] if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return layer[0]

