"""Sparse multivariate polynomials over the integers, with a heuristic GCD.

A :class:`Poly` is a dict from monomials to nonzero Python ints.  A
monomial is one Python int that packs the exponents of the ring's
variables into fields of :data:`FIELD_BITS` bits, variable 0 in the most
significant field: in ``n`` variables, x_0**e_0 * ... * x_(n-1)**e_(n-1)
is the sum of ``e_i << FIELD_BITS * (n - 1 - i)``.  The top bit of every
field is a guard bit that a monomial keeps clear, so an exponent is at
most :data:`MAX_EXPONENT`; :attr:`PolyRing.guard` holds the ring's guard
bits.  Then:

* a product of monomials is their sum: two exponents add up to less than
  2**FIELD_BITS, so no field carries into the next, and an exponent past
  MAX_EXPONENT shows as a set guard bit.  Every product checks its
  monomials against the guard bits (the sum of the inputs' cached
  supports bounds them; only when that bound reaches a guard bit is the
  product itself read) and raises :class:`SymbolicError` rather than
  keep such a monomial;
* m is divisible by g exactly when ``d = (m | guard) - g`` keeps every
  guard bit set, each field borrowing from its own guard bit only; the
  quotient is then ``d ^ guard``;
* integer order is lex order, so ``max(p)`` is the lex-leading monomial.

Arithmetic never mutates its operands, so a polynomial may serve as a
dict key.  It returns a new polynomial, except that a product with the
integer 1 or the unit polynomial returns the other operand itself.  A
polynomial's hash and its support (see :func:`_support`) are cached:
never mutate one after either has been read.

The tuple view is kept where exponents are read one by one:
:meth:`Poly.terms` and :meth:`PolyRing.from_dict` speak in exponent
tuples.  :meth:`Poly.terms` and :attr:`Poly.LC` use the graded reverse
lexicographic order (grevlex), ranking a monomial by the key
``(sum(m), reversed(-e for e in m))`` on its exponent tuple.

:func:`cofactors` is the heuristic GCD of Char, Geddes and Gonnet
(J. Symbolic Comput. 7, 1989), in the form given by Liao and Fateman
(ISSAC 1995) and implemented by sympy's ``heugcd``: the same single-term
shortcut, deflation, evaluation points and number of attempts.  It
evaluates both inputs at an integer point in their first variable,
recursing until the GCD is an integer GCD, and recovers a polynomial
candidate from each integer image by symmetric-remainder interpolation.
A candidate is accepted only once trial division in lex order shows it
divides both inputs exactly, so an accepted GCD is always correct; when no
evaluation point gives one, :class:`HeuristicGCDFailed` is raised.

The GCD works in place on the packed monomials, over only the fields its
two inputs use.  heugcd receives the list of ``(shift, J)`` pairs of those
fields, most significant first, J being the GCD of that variable's
exponents.  Evaluating at x_i = x reads the exponent as
``(m >> shift) // J`` and keeps ``m & ((1 << shift) - 1)``, the fields
below; interpolation writes ``(k * J) << shift`` back.  So no variable
that neither input mentions is evaluated or divided in (the ring of S^6
has 16 variables, and a typical denominator mentions one to three), no
input is copied into a smaller ring, and the results come out in the
ring's own layout.  None of this changes the result: an unmentioned
variable has exponent 0 in every monomial, so lex over the rest, in the
same relative order, ranks the monomials as lex over all variables does,
and dividing a variable's exponents by J (sympy's deflation) keeps that
order too.  Over ZZ the reduced cofactors are unique up to one common
sign, which heugcd fixes by the lex leading coefficient, so it is the sign
of the GCD over all variables.

A :class:`CoprimeBasis` lets products and sums of quotients over many
denominators be reduced without a GCD (factor refinement: Bach, Driscoll
and Shallit, J. Algorithms 14, 1993; Bernstein, J. Algorithms 54, 2005).
It keeps pairwise coprime elements that generate the denominators it has
met, so each denominator factors as an integer content times element
powers.  :meth:`CoprimeBasis.cancel` takes a product's factors and,
before anything is multiplied, divides out each element power that one
factor's denominator shares with another factor's numerator, from both,
through a memo of exact quotient chains per (polynomial, element).  For
a sum, the least common denominator is a componentwise maximum and each
quotient's cofactor a product of cached element powers;
:meth:`CoprimeBasis.sum_quotients` then divides the sum exactly by
elements as far as it goes, so each element left in the denominator
failed an exact division of the numerator.  (A lone cancelled product
skips that division for a certified element, which divides none of its
factors and so, being irreducible, not their product.)  When that
element is certified irreducible (a test run once per element:
linear, or quadratic with a discriminant that is no square, in a
variable in which its content is a unit), the failed division proves it
coprime to the numerator.  Otherwise a GCD with the element, taken over
the numerator's coefficients in that element's variables, proves it, or
the caller is told that a GCD must still cancel the quotient.  So the
GCD serves only refinement, that proof and the caller's fallback.  All
of this is exact polynomial arithmetic.
"""

from __future__ import annotations

import struct
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, isqrt, lcm
from operator import or_

# Evaluation points tried by heugcd before it gives up.
HEU_GCD_MAX = 6

# Bits per variable, guard bit included; PolyRing reads fields as 16-bit
# unsigned shorts.
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class SymbolicError(Exception):
    """Base class for failures of exact symbolic arithmetic."""


class HeuristicGCDFailed(SymbolicError):
    """No evaluation point tried by the heuristic GCD recovered the GCD."""


def _support(p) -> int:
    """An int with a field per variable, nonzero exactly when some
    monomial of ``p`` mentions the variable, and below the guard bit but
    at least the variable's largest exponent in ``p``.  It is the OR of the
    monomials, or, for a product, the sum of its factors' supports (see
    :meth:`Poly.__mul__`).  Cached on a :class:`Poly`, on first use or by
    the product that built it; computed each time for a plain dict."""
    if p.__class__ is Poly:
        try:
            return p._support
        except AttributeError:
            support = p._support = reduce(or_, p, 0)
            return support
    return reduce(or_, p, 0)


def _overflow():
    return SymbolicError("an exponent exceeds the largest a field holds, %d" % MAX_EXPONENT)


@lru_cache(maxsize=None)
def poly_ring(ngens: int) -> "PolyRing":
    """The one ring of polynomials in ``ngens`` variables."""
    return PolyRing(ngens)


class PolyRing:
    """Constants and constructors for polynomials in ``ngens`` variables.

    Get rings from :func:`poly_ring`, so that each size has one instance.
    ``shifts[i]`` is the bit offset of variable ``i``'s field, ``masks[i]``
    selects that field, and ``guard`` is the OR of every field's guard bit.
    """

    __slots__ = (
        "ngens", "shifts", "masks", "guard", "zero", "one", "gens", "_bytes", "_big", "_little",
    )

    def __init__(self, ngens: int):
        self.ngens = ngens
        self.shifts = tuple(FIELD_BITS * (ngens - 1 - i) for i in range(ngens))
        self.masks = tuple(_FIELD << s for s in self.shifts)
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self._bytes = FIELD_BITS // 8 * ngens
        self._big = struct.Struct(">%dH" % ngens)
        self._little = struct.Struct("<%dH" % ngens)
        self.zero = _new(self, {})
        self.one = _new(self, {0: 1})
        self.gens = tuple(_new(self, {1 << s: 1}) for s in self.shifts)

    def __reduce__(self):
        return poly_ring, (self.ngens,)

    def ground_new(self, n: int) -> "Poly":
        return _new(self, {0: n} if n else {})

    def exponents(self, m: int) -> tuple:
        """The exponent tuple of monomial ``m``."""
        return self._big.unpack(m.to_bytes(self._bytes, "big"))

    def monomial(self, exponents) -> int:
        """The monomial with this exponent tuple."""
        if len(exponents) != self.ngens or not all(0 <= e <= MAX_EXPONENT for e in exponents):
            raise SymbolicError(
                "exponents %r do not fit %d fields of at most %d"
                % (tuple(exponents), self.ngens, MAX_EXPONENT)
            )
        return int.from_bytes(self._big.pack(*exponents), "big")

    def from_dict(self, terms: dict) -> "Poly":
        """The polynomial with these exponent tuple -> coefficient terms;
        zero coefficients are dropped."""
        return _new(self, {self.monomial(m): int(c) for m, c in terms.items() if c})

    def new(self, terms: dict) -> "Poly":
        """The polynomial with these monomial -> coefficient terms, monomials
        packed; zero coefficients are dropped, and an exponent past
        :data:`MAX_EXPONENT` (a set guard bit) raises :class:`SymbolicError`."""
        p = _new(self, {m: c for m, c in terms.items() if c})
        if _support(p) & self.guard:
            raise _overflow()
        return p

    def _grevlex_key(self, m: int):
        # Ascending in this key is descending in grevlex: higher total
        # degree first, then the smaller exponent of the last variable, and
        # so on towards the first.  The little-endian read lists the fields
        # from the last variable to the first.
        r = self._little.unpack(m.to_bytes(self._bytes, "little"))
        return -sum(r), r


def _new(ring: PolyRing, terms: dict) -> "Poly":
    p = Poly(terms)
    p.ring = ring
    return p


class Poly(dict):
    """Immutable-by-convention sparse polynomial; see the module docstring."""

    __slots__ = ("ring", "_hash", "_support")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    # Ordering ---------------------------------------------------------------

    def terms(self) -> list:
        """(exponent tuple, coefficient) pairs, descending in grevlex."""
        ring = self.ring
        return [(ring.exponents(m), self[m]) for m in sorted(self, key=ring._grevlex_key)]

    @property
    def LC(self) -> int:
        """Leading coefficient in grevlex; 0 for the zero polynomial."""
        return self[min(self, key=self.ring._grevlex_key)] if self else 0

    # Arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return self.ring.ground_new(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = _new(self.ring, self)
        get = p.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                p[m] = c
            else:
                del p[m]
        return p

    __radd__ = __add__

    def __neg__(self):
        return _new(self.ring, {m: -c for m, c in self.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if not other:
                return self.ring.zero
            return _new(self.ring, {m: c * other for m, c in self.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        ring = self.ring
        if len(other) > len(self):
            self, other = other, self
        if len(other) == 1:
            ((m2, c2),) = other.items()
            p = _new(ring, {m1 + m2: c1 * c2 for m1, c1 in self.items()})
        else:
            p = _new(ring, {})
            get = p.get
            right = list(other.items())
            for m1, c1 in self.items():
                for m2, c2 in right:
                    m = m1 + m2
                    p[m] = get(m, 0) + c1 * c2
            for m in [m for m, c in p.items() if not c]:
                del p[m]
        # Each field of the inputs' supports bounds that exponent in the
        # inputs, so their sum bounds it in the product.  Below the guard
        # bits it is the product's support: a nonzero product mentions
        # every variable its factors mention.
        bound = _support(self) + _support(other)
        if bound & ring.guard:
            if _support(p) & ring.guard:
                raise _overflow()
        elif p:
            p._support = bound
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer, got %r" % (n,))
        result = self.ring.one
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def substitute(self, i: int, value) -> tuple:
        """``self`` at variable ``i`` = ``value``, a Fraction, as ``(p, d)``:
        the polynomial ``p`` over the positive int ``d``."""
        ring = self.ring
        s = ring.shifts[i]
        acc = {}
        for e, coefficient in _split(self, ring.masks[i]).items():
            power = value ** (e >> s)
            for m, c in coefficient.items():
                acc[m] = acc.get(m, 0) + c * power
        d = lcm(*(q.denominator for q in acc.values()))
        return ring.new({m: int(q * d) for m, q in acc.items()}), d

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable ``i``."""
        s = self.ring.shifts[i]
        unit = 1 << s
        out = {}
        for m, c in self.items():
            e = m >> s & _FIELD
            if e:
                out[m - unit] = c * e
        return _new(self.ring, out)


# --- heuristic GCD -----------------------------------------------------------
#
# Below, polynomials are plain dicts of packed monomials in lex order, and
# ``fields`` lists the (shift, J) pairs heugcd runs over (module docstring).


def cofactors(f: Poly, g: Poly):
    """``(h, f/h, g/h)`` with ``h`` the GCD of ``f`` and ``g``.

    The GCD runs over only the fields either input uses, deflated, in
    place (see the module docstring).  Over ZZ the GCD is unique up to
    sign; the signs are those that sympy's ``cofactors`` gives in a
    lex-ordered ring over all of the ring's variables.
    """
    ring = f.ring
    if not f and not g:
        return ring.zero, ring.zero, ring.zero
    if not f:
        h, cfg = _gcd_zero(g)
        return h, ring.zero, cfg
    if not g:
        h, cff = _gcd_zero(f)
        return h, cff, ring.zero
    if len(f) == 1:
        h, cff, cfg = _gcd_monom(f, g, ring.guard)
    elif len(g) == 1:
        h, cfg, cff = _gcd_monom(g, f, ring.guard)
    else:
        h, cff, cfg = _heugcd(f, g, _fields(f, g, ring.shifts), ring.guard)
    return _new(ring, h), _new(ring, cff), _new(ring, cfg)


def _gcd_zero(g: Poly):
    """The GCD of 0 and nonzero ``g``, and the cofactor of ``g``."""
    if g[max(g)] >= 0:
        return g, g.ring.one
    return -g, -g.ring.one


def _gcd_monom(f: dict, g: dict, guard: int):
    """GCD and cofactors when ``f`` is a single term."""
    ((mf, cf),) = f.items()
    mh, ch = mf, cf
    for mg, cg in g.items():
        # fields where mh >= mg keep their guard bit in d, and drop to mg
        d = (mh | guard) - mg
        t = d & guard
        mh -= d & (t - (t >> (FIELD_BITS - 1)))
        ch = gcd(ch, cg)
    return (
        {mh: ch},
        {mf - mh: cf // ch},
        {mg - mh: cg // ch for mg, cg in g.items()},
    )


def _fields(f: dict, g: dict, shifts: tuple) -> list:
    """``(shift, J)`` of each field ``f`` or ``g`` uses, most significant
    first, ``J`` the GCD of that variable's exponents."""
    used = _support(f) | _support(g)
    fields = []
    for s in shifts:
        if used >> s & _FIELD:
            j = 0
            for m in chain(f, g):
                j = gcd(j, m >> s & _FIELD)
                if j == 1:
                    break
            fields.append((s, j))
    return fields


def _content(p: dict) -> int:
    return gcd(*p.values())


def _quo_ground(p: dict, c: int) -> dict:
    if c == 1:
        return p
    return {m: v // c for m, v in p.items()}


def _lex_lc(p: dict) -> int:
    return p[max(p)]


def _heugcd(f: dict, g: dict, fields: list, guard: int):
    """heugcd of nonzero ``f`` and ``g`` over the ``fields`` they use."""
    common = gcd(_content(f), _content(g))
    f = _quo_ground(f, common)
    g = _quo_ground(g, common)

    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(
        min(B, 99 * isqrt(B)),
        2 * min(f_norm // abs(_lex_lc(f)), g_norm // abs(_lex_lc(g))) + 4,
    )

    for _ in range(HEU_GCD_MAX):
        ff = _evaluate_first(f, x, fields)
        gg = _evaluate_first(g, x, fields)
        if ff and gg:
            if len(fields) == 1:
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg, fields[1:], guard)

            h = _interpolate(h, x, fields)
            h = _quo_ground(h, _content(h))
            cff_ = _exquo(f, h, guard)
            if cff_ is not None:
                cfg_ = _exquo(g, h, guard)
                if cfg_ is not None:
                    return _mul_ground(h, common), cff_, cfg_

            cff = _interpolate(cff, x, fields)
            h = _exquo(f, cff, guard)
            if h is not None:
                cfg_ = _exquo(g, h, guard)
                if cfg_ is not None:
                    return _mul_ground(h, common), cff, cfg_

            cfg = _interpolate(cfg, x, fields)
            h = _exquo(g, cfg, guard)
            if h is not None:
                cff_ = _exquo(f, h, guard)
                if cff_ is not None:
                    return _mul_ground(h, common), cff_, cfg

        x = 73794 * x * isqrt(isqrt(x)) // 27011

    raise HeuristicGCDFailed("heuristic GCD failed after %d evaluation points" % HEU_GCD_MAX)


def _mul_ground(p: dict, c: int) -> dict:
    if c == 1:
        return p
    return {m: v * c for m, v in p.items()}


def _evaluate_first(f: dict, x: int, fields: list):
    """``f`` at x = ``x`` in the first of ``fields``: an int when that is
    the only one, else a dict over the fields below it."""
    s, J = fields[0]
    # powers[e] = x**(e // J) at every exponent e that is a multiple of J
    top = max(f) >> s
    powers = [0] * (top + 1)
    power = 1
    for e in range(0, top + 1, J):
        powers[e] = power
        power *= x
    if len(fields) == 1:
        return sum(c * powers[m >> s] for m, c in f.items())
    low = (1 << s) - 1
    out = {}
    get = out.get
    for m, c in f.items():
        rest = m & low
        c = get(rest, 0) + c * powers[m >> s]
        if c:
            out[rest] = c
        else:
            del out[rest]
    return out


def _interpolate(h, x: int, fields: list) -> dict:
    """The polynomial whose coefficients in the first of ``fields`` are the
    symmetric base-x digits of ``h`` (an int when that is the only field,
    else a dict over the fields below it), negated if its lex leading
    coefficient is negative."""
    s, J = fields[0]
    step = J << s
    f = {}
    half = x // 2
    e = 0
    if len(fields) == 1:
        while h:
            g = h % x
            if g > half:
                g -= x
            h = (h - g) // x
            if g:
                f[e] = g
            e += step
    else:
        while h:
            rest = {}
            for m, c in h.items():
                g = c % x
                if g > half:
                    g -= x
                if g:
                    f[e | m] = g
                c = (c - g) // x
                if c:
                    rest[m] = c
            h = rest
            e += step
    if e > (MAX_EXPONENT + J) << s:
        # a digit past the field (the coefficients would need more than
        # MAX_EXPONENT base-x digits)
        raise _overflow()
    if _lex_lc(f) < 0:
        return {m: -c for m, c in f.items()}
    return f


def _exquo(f: dict, g: dict, guard: int):
    """``f / g`` when nonzero ``g`` divides ``f`` exactly, else ``None``.

    Lex division that stops at the first leading term of the running
    remainder that the leading term of ``g`` does not divide: that term
    would go to the remainder, and no later step can cancel it.  Nor can a
    remainder term with an exponent past MAX_EXPONENT: every term of an
    exact division divides ``f``.  ``guard`` holds the ring's guard bits.
    """
    if _is_one(g):
        return dict(f)
    gm = max(g)
    gc = g[gm]
    rest = list(g.items())
    p = dict(f)
    get = p.get
    q = {}
    while p:
        m = max(p)
        c = p[m]
        e = (m | guard) - gm
        if m & guard or e & guard != guard or c % gc:
            return None
        e ^= guard
        c //= gc
        q[e] = c
        for mg, cg in rest:
            k = mg + e
            v = get(k, 0) - c * cg
            if v:
                p[k] = v
            else:
                del p[k]
    return q


# --- coprime basis -----------------------------------------------------------


def _split(p: dict, mask: int) -> dict:
    """``p`` as a polynomial in the fields of ``mask``: each monomial over
    those fields maps to its coefficient, a dict over the other fields."""
    out = {}
    for m, c in p.items():
        inside = m & mask
        out.setdefault(inside, {})[m - inside] = c
    return out


def _divide_out(p: dict, b: dict, guard: int, most: int) -> tuple:
    """``(q, k)`` with ``p = q * b**k``: ``p`` divided exactly by ``b`` as
    long as ``b`` divides it, at most ``most`` times."""
    k = 0
    while k < most:
        q = _exquo(p, b, guard)
        if q is None:
            break
        p, k = q, k + 1
    return p, k


def _is_constant(p) -> bool:
    return len(p) == 1 and 0 in p


def _is_one(p) -> bool:
    return len(p) == 1 and p.get(0) == 1


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
    h = b
    # split by the other fields: each coefficient is over b's fields
    for coefficient in _split(p, ~mask).values():
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
        split = _split(b, field)
        coefficients = [split.get(k << s, {}) for k in range(degree + 1)]
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
        if discriminant < 0 or isqrt(discriminant) ** 2 != discriminant:
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
    over it (see the module docstring).

    ``elements`` are pairwise coprime, primitive polynomials with a
    positive grevlex leading coefficient.  :meth:`factor` writes a
    denominator as an integer content times powers of the elements,
    ``(content, ((index, exponent), ...))``, by exact trial division.  A
    denominator that the elements do not generate refines the basis:
    what is left after trial division is split against each element by
    its GCD until every piece is coprime to the rest.  A refinement that
    splits an element renumbers the basis, bumps ``generation`` and makes
    ``elements`` a new list, so a holder of the old list can still read
    the elements its vectors index (:meth:`refactor`); factorings made
    under an older generation are stale and are recomputed when next
    asked for.  A refinement that only appends an element coprime to all
    others keeps the list and leaves every earlier factoring exact.
    """

    __slots__ = (
        "ring", "elements", "generation", "_factors", "_powers", "_irreducible", "_chains",
    )

    def __init__(self, ring):
        self.ring = ring
        self.elements = []
        self.generation = 0
        self._factors = {}  # denominator -> (generation, (content, vector))
        self._powers = {}  # element -> [element**0, element**1, ...]
        self._irreducible = {}  # element -> whether it is certified irreducible
        # (polynomial, element) -> [p, p/b, p/b**2, ...], ending in None
        # once the element divides the last quotient no further
        self._chains = {}

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
            return cached[1]
        while True:
            content, vector, rest = self._divide(den)
            if rest is None:
                break
            self._refine(rest)
        self._factors[den] = (self.generation, (content, vector))
        return content, vector

    def refactor(self, content: int, vector: tuple, elements: list) -> tuple:
        """``(content, vector)``, whose vector indexes ``elements``, an
        earlier ``elements`` list, factored over the current one.  Each
        earlier element is a product of current ones."""
        exponents = {}
        for i, e in vector:
            c, pieces = self.factor(elements[i])
            content *= c ** e
            for j, f in pieces:
                exponents[j] = exponents.get(j, 0) + e * f
        return content, tuple(sorted(exponents.items()))

    def quotient(self, p, i: int, most: int) -> tuple:
        """``(q, k)`` with ``p = q * elements[i]**k`` and ``k`` as large as
        it goes, at most ``most``: the exact quotient chain of ``p`` by the
        element, memoised per (polynomial, element) as far as it has been
        followed."""
        b = self.elements[i]
        key = (p, b)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = [p]
        while len(chain) <= most and chain[-1] is not None:
            q = _exquo(chain[-1], b, self.ring.guard)
            chain.append(None if q is None else _new(self.ring, q))
        k = min(most, len(chain) - 1)
        if chain[k] is None:
            k -= 1
        return chain[k], k

    def cancel(self, factors) -> tuple:
        """The product of the reduced quotients ``num / den`` of the
        ``(num, den)`` pairs ``factors``, each ``num`` nonzero and each
        ``den`` with a positive grevlex leading coefficient, as ``(content,
        vector, nums)``: the product is that of ``nums`` over ``content``
        times the element powers of ``vector``.  Before anything is
        multiplied, each element power that one factor's denominator shares
        with another factor's numerator is divided out of both, so an
        element left in ``vector`` divides none of ``nums``."""
        generation = self.generation
        factorings = self._factors
        nums = []
        content = 1
        exponents = {}
        holder = {}  # element index -> the factor whose den holds it, or None if several
        for j, (num, den) in enumerate(factors):
            nums.append(num)
            if len(den) == 1 and den.get(0) == 1:
                continue
            cached = factorings.get(den)
            c, vector = (
                cached[1] if cached is not None and cached[0] == generation else self.factor(den)
            )
            content *= c
            for i, e in vector:
                if i in exponents:
                    exponents[i] += e
                    holder[i] = None
                else:
                    exponents[i] = e
                    holder[i] = j
        if self.generation != generation:
            # factoring split an element, which renumbers the basis: factor
            # every denominator again
            return self.cancel(factors)
        if len(nums) > 1:
            for i, e in exponents.items():
                # a factor's own element divides neither its reduced
                # numerator nor a constant
                for j, num in enumerate(nums):
                    if j != holder[i] and not (len(num) == 1 and 0 in num):
                        num, k = self.quotient(num, i, e)
                        if k:
                            nums[j] = num
                            e -= k
                            if not e:
                                break
                exponents[i] = e
        return content, tuple(sorted((i, e) for i, e in exponents.items() if e)), nums

    def power(self, i: int, k: int):
        """``elements[i] ** k``, cached."""
        b = self.elements[i]
        powers = self._powers.get(b)
        if powers is None:
            powers = self._powers[b] = [self.ring.one, b]
        while len(powers) <= k:
            powers.append(powers[-1] * b)
        return powers[k]

    def sum_quotients(self, groups, lone: bool = False) -> tuple:
        """The sum of ``num / (content * prod(elements[i]**e))`` over the
        ``((content, vector), num)`` groups, each factored over the current
        elements with a positive content, as ``(num, den, reduced)``.
        ``num / den`` is the sum as a rational function, and ``den`` has a
        positive content and leading coefficient.  When ``reduced`` is
        true, ``num`` and ``den`` are proved coprime; else a GCD must still
        cancel them.  A zero sum is ``(0, 1, True)``.

        ``lone`` says that the one group is one product from
        :meth:`cancel`, whose elements divide none of its factors'
        numerators: a certified irreducible element then divides no product
        of them either, and is left in the denominator without a trial
        division."""
        content = lcm(*(c for (c, _), _ in groups))
        lcd = {}
        for (_, vector), _ in groups:
            for i, e in vector:
                if e > lcd.get(i, 0):
                    lcd[i] = e
        R = self.ring
        if len(groups) == 1:
            ((_, total),) = groups
        else:
            total = R.zero
            for (c, vector), num in groups:
                have = dict(vector)
                cofactor = R.ground_new(content // c)
                for i, e in lcd.items():
                    if e > have.get(i, 0):
                        cofactor = cofactor * self.power(i, e - have.get(i, 0))
                total = total + num * cofactor
        if not total:
            return R.zero, R.one, True
        # Cancel whole element powers and the integer content by exact
        # division.  What is left of the denominator is an integer coprime
        # to the numerator's content times powers of pairwise coprime
        # elements, so the numerator is coprime to it when it is coprime to
        # each of those elements.  Each such element failed its last exact
        # division, so a certified irreducible one is coprime; any other is
        # checked by _coprime.
        num = total
        den = R.one
        leftover = []
        for i, e in lcd.items():
            b = self.elements[i]
            k = 0
            if not (lone and self.irreducible(b)):
                num, k = _divide_out(num, b, R.guard, e)
            if k < e:
                den = den * self.power(i, e - k)
                leftover.append(b)
        if content != 1:
            common = gcd(content, _content(num))
            num = _quo_ground(num, common)
            den = den * (content // common)
        if num is not total:
            num = R.new(num)
        reduced = all(self.irreducible(b) or _coprime(num, b) for b in leftover)
        return num, den, reduced

    def _divide(self, den):
        """Trial-divide ``den`` by the elements: its content, its vector,
        and what is left when that is not a unit (else None)."""
        content = _content(den)
        p = _quo_ground(den, content)
        guard = self.ring.guard
        # low + support sets a field's guard bit exactly where the support
        # mentions the variable (a support stays below the guard bits)
        low = guard - (guard >> (FIELD_BITS - 1))
        unmentioned = ~(_support(den) + low) & guard
        vector = []
        for i, b in enumerate(self.elements):
            # an element with a variable den lacks divides no factor of it;
            # another divides it at most MAX_EXPONENT times
            if (_support(b) + low) & unmentioned:
                continue
            p, e = _divide_out(p, b, guard, MAX_EXPONENT)
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
                    # a = g a_rest and b = g b_rest: b gives way to the pieces,
                    # in a new list, so that the old one still reads as it did
                    if not split:
                        elements = self.elements = list(elements)
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
