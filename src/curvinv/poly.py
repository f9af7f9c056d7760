"""Sparse multivariate polynomials over the integers, with a heuristic GCD.

A :class:`Poly` is a dict from exponent tuples to nonzero Python ints; all
polynomials of one :class:`PolyRing` have exponent tuples of the ring's
length.  Arithmetic returns new polynomials and never mutates its operands,
so a polynomial may serve as a dict key (its hash is cached on first use):
never mutate one after it has been hashed.

:meth:`Poly.terms` and :attr:`Poly.LC` use the graded reverse
lexicographic order (grevlex), ranking a monomial by the key
``(sum(m), reversed(-e for e in m))``.  The GCD uses lex order, which on
exponent tuples is plain tuple order.

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

The GCD runs over only the variables its two inputs mention.  heugcd
evaluates and divides in every variable it is given, so a variable that
neither input mentions would cost time too; the ring of S^6 has 16
variables, and a typical denominator mentions one to three.  Leaving those
variables out changes nothing in the result: each has exponent 0 in every
monomial, so lex over the rest, in the same relative order, ranks the
monomials as lex over all variables does.  The same holds for deflation,
which divides each variable's exponents by their GCD.  Over ZZ the reduced
cofactors are unique up to one common sign, which heugcd fixes by the lex
leading coefficient, so it is the sign of the GCD over all variables.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

# Evaluation points tried by heugcd before it gives up.
HEU_GCD_MAX = 6


class SymbolicError(Exception):
    """Base class for failures of exact symbolic arithmetic."""


class HeuristicGCDFailed(SymbolicError):
    """No evaluation point tried by the heuristic GCD recovered the GCD."""


def _monomial_ops(n: int):
    """Monomial product and exact quotient (``None`` when a component
    would go negative), unrolled for ``n``-tuples: the hot loops call them
    once per pair of terms."""
    if not n:
        return (lambda A, B: ()), (lambda A, B: ())
    a = ", ".join("a%d" % i for i in range(n))
    b = ", ".join("b%d" % i for i in range(n))
    checks = "".join(
        "    c%d = a%d - b%d\n    if c%d < 0: return None\n" % (i, i, i, i) for i in range(n)
    )
    source = (
        "def mul(A, B):\n    (%s,) = A\n    (%s,) = B\n    return (%s,)\n"
        "def div(A, B):\n    (%s,) = A\n    (%s,) = B\n%s    return (%s,)\n"
        % (
            a, b, ", ".join("a%d + b%d" % (i, i) for i in range(n)),
            a, b, checks, ", ".join("c%d" % i for i in range(n)),
        )
    )
    namespace = {}
    exec(source, namespace)
    return namespace["mul"], namespace["div"]


@lru_cache(maxsize=None)
def poly_ring(ngens: int) -> "PolyRing":
    """The one ring of polynomials in ``ngens`` variables."""
    return PolyRing(ngens)


class PolyRing:
    """Constants and constructors for polynomials in ``ngens`` variables.

    Get rings from :func:`poly_ring`, so that each size has one instance.
    """

    __slots__ = ("ngens", "zero_monom", "zero", "one", "gens", "monomial_mul", "monomial_div")

    def __init__(self, ngens: int):
        self.ngens = ngens
        self.zero_monom = (0,) * ngens
        self.monomial_mul, self.monomial_div = _monomial_ops(ngens)
        self.zero = _new(self, {})
        self.one = _new(self, {self.zero_monom: 1})
        self.gens = tuple(
            _new(self, {tuple(int(i == j) for j in range(ngens)): 1}) for i in range(ngens)
        )

    def __reduce__(self):
        return poly_ring, (self.ngens,)

    def ground_new(self, n: int) -> "Poly":
        return _new(self, {self.zero_monom: n} if n else {})

    def from_dict(self, terms: dict) -> "Poly":
        """The polynomial with these exponent -> coefficient terms; zero
        coefficients are dropped."""
        return _new(self, {m: int(c) for m, c in terms.items() if c})


def _new(ring: PolyRing, terms: dict) -> "Poly":
    p = Poly(terms)
    p.ring = ring
    return p


def _grevlex_key(monom):
    return sum(monom), tuple([-e for e in reversed(monom)])


def _grevlex_term_key(term):
    return _grevlex_key(term[0])


class Poly(dict):
    """Immutable-by-convention sparse polynomial; see the module docstring."""

    __slots__ = ("ring", "_hash")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    # Ordering ---------------------------------------------------------------

    def terms(self) -> list:
        """(monomial, coefficient) pairs, descending in grevlex."""
        return sorted(self.items(), key=_grevlex_term_key, reverse=True)

    def monoms(self) -> list:
        return [m for m, _ in self.terms()]

    @property
    def LC(self) -> int:
        """Leading coefficient in grevlex; 0 for the zero polynomial."""
        return self[max(self, key=_grevlex_key)] if self else 0

    def degree(self, i: int):
        """Highest exponent of variable ``i``; ``-inf`` for zero."""
        return max([m[i] for m in self]) if self else float("-inf")

    def degrees(self) -> tuple:
        """:meth:`degree` of every variable."""
        if not self:
            return (float("-inf"),) * self.ring.ngens
        return tuple(map(max, zip(*self)))

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
            if not other:
                return self.ring.zero
            return _new(self.ring, {m: c * other for m, c in self.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        ring = self.ring
        if len(other) > len(self):
            self, other = other, self
        if len(other) == 1:
            ((m2, c2),) = other.items()
            mul = ring.monomial_mul
            return _new(ring, {mul(m1, m2): c1 * c2 for m1, c1 in self.items()})
        p = _new(ring, {})
        get = p.get
        mul = ring.monomial_mul
        right = list(other.items())
        for m1, c1 in self.items():
            for m2, c2 in right:
                m = mul(m1, m2)
                p[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in p.items() if not c]:
            del p[m]
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

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable ``i``."""
        out = {}
        for m, c in self.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return _new(self.ring, out)


# --- heuristic GCD -----------------------------------------------------------
#
# Below, polynomials are plain dicts in lex order; heugcd runs over n >= 1
# variables.


def cofactors(f: Poly, g: Poly):
    """``(h, f/h, g/h)`` with ``h`` the GCD of ``f`` and ``g``.

    The GCD runs on the projections of ``f`` and ``g`` onto only the
    variables either mentions, deflated, and the results are mapped back
    (see the module docstring).  Over ZZ the GCD is unique up to sign; the
    signs are those that sympy's ``cofactors`` gives in a lex-ordered ring
    over all of the ring's variables.
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
    used, J, f, g = _deflate(f, g)
    if len(f) == 1:
        h, cff, cfg = _gcd_monom(f, g)
    elif len(g) == 1:
        h, cfg, cff = _gcd_monom(g, f)
    else:
        h, cff, cfg = _heugcd(f, g, len(used))
    return tuple(_new(ring, _inflate(p, used, J, ring.ngens)) for p in (h, cff, cfg))


def _gcd_zero(g: Poly):
    """The GCD of 0 and nonzero ``g``, and the cofactor of ``g``."""
    if g[max(g)] >= 0:
        return g, g.ring.one
    return -g, -g.ring.one


def _gcd_monom(f: dict, g: dict):
    """GCD and cofactors when ``f`` is a single term."""
    ((mf, cf),) = f.items()
    mh, ch = mf, cf
    for mg, cg in g.items():
        mh = tuple(map(min, mh, mg))
        ch = gcd(ch, cg)

    def quo(m, c):
        return tuple(a - b for a, b in zip(m, mh)), c // ch

    return (
        {mh: ch},
        dict([quo(mf, cf)]),
        dict(quo(mg, cg) for mg, cg in g.items()),
    )


def _deflate(f: dict, g: dict):
    """``(used, J, f', g')``: ``used`` the indices of the variables either
    polynomial mentions, ``J`` the GCD of each one's exponents, and ``f'``
    and ``g'`` over those variables alone with x_i**J_i -> x_i."""
    J = [gcd(*exponents) for exponents in zip(*f, *g)]
    used = [i for i, j in enumerate(J) if j]
    if all(j == 1 for j in J):
        return used, J, f, g
    J = [J[i] for i in used]
    pairs = list(zip(used, J))
    return (used, J) + tuple(
        {tuple([m[i] // j for i, j in pairs]): c for m, c in p.items()} for p in (f, g)
    )


def _inflate(p: dict, used: list, J: list, ngens: int) -> dict:
    """Undo :func:`_deflate` on ``p``, back to ``ngens`` variables."""
    if len(used) == ngens and all(j == 1 for j in J):
        return p
    out = {}
    for m, c in p.items():
        full = [0] * ngens
        for i, j, e in zip(used, J, m):
            full[i] = e * j
        out[tuple(full)] = c
    return out


def _content(p: dict) -> int:
    return gcd(*p.values())


def _quo_ground(p: dict, c: int) -> dict:
    if c == 1:
        return p
    return {m: v // c for m, v in p.items()}


def _lex_lc(p: dict) -> int:
    return p[max(p)]


def _heugcd(f: dict, g: dict, n: int):
    """heugcd of nonzero ``f`` and ``g`` over ``n`` variables."""
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
        ff = _evaluate_first(f, x, n)
        gg = _evaluate_first(g, x, n)
        if ff and gg:
            if n == 1:
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg, n - 1)

            h = _interpolate(h, x, n)
            h = _quo_ground(h, _content(h))
            cff_ = _exquo(f, h)
            if cff_ is not None:
                cfg_ = _exquo(g, h)
                if cfg_ is not None:
                    return _mul_ground(h, common), cff_, cfg_

            cff = _interpolate(cff, x, n)
            h = _exquo(f, cff)
            if h is not None:
                cfg_ = _exquo(g, h)
                if cfg_ is not None:
                    return _mul_ground(h, common), cff, cfg_

            cfg = _interpolate(cfg, x, n)
            h = _exquo(g, cfg)
            if h is not None:
                cff_ = _exquo(f, h)
                if cff_ is not None:
                    return _mul_ground(h, common), cff_, cfg

        x = 73794 * x * isqrt(isqrt(x)) // 27011

    raise HeuristicGCDFailed("heuristic GCD failed after %d evaluation points" % HEU_GCD_MAX)


def _mul_ground(p: dict, c: int) -> dict:
    if c == 1:
        return p
    return {m: v * c for m, v in p.items()}


def _evaluate_first(f: dict, x: int, n: int):
    """``f`` at x_0 = x: an int when ``n`` is 1, else a dict over the other
    ``n - 1`` variables."""
    powers = [1]
    for _ in range(max(m[0] for m in f)):
        powers.append(powers[-1] * x)
    if n == 1:
        return sum(c * powers[m[0]] for m, c in f.items())
    out = {}
    get = out.get
    for m, c in f.items():
        rest = m[1:]
        c = get(rest, 0) + c * powers[m[0]]
        if c:
            out[rest] = c
        else:
            del out[rest]
    return out


def _interpolate(h, x: int, n: int) -> dict:
    """The polynomial whose coefficients in x_0 are the symmetric base-x
    digits of ``h`` (an int when ``n`` is 1, else a dict over the other
    variables), negated if its lex leading coefficient is negative."""
    f = {}
    half = x // 2
    i = 0
    if n == 1:
        while h:
            g = h % x
            if g > half:
                g -= x
            h = (h - g) // x
            if g:
                f[(i,)] = g
            i += 1
    else:
        while h:
            rest = {}
            for m, c in h.items():
                g = c % x
                if g > half:
                    g -= x
                if g:
                    f[(i,) + m] = g
                c = (c - g) // x
                if c:
                    rest[m] = c
            h = rest
            i += 1
    if _lex_lc(f) < 0:
        return {m: -c for m, c in f.items()}
    return f


def _exquo(f: dict, g: dict):
    """``f / g`` when nonzero ``g`` divides ``f`` exactly, else ``None``.

    Lex division that stops at the first leading term of the running
    remainder that the leading term of ``g`` does not divide: that term
    would go to the remainder, and no later step can cancel it.
    """
    gm = max(g)
    ring = poly_ring(len(gm))
    mul, div = ring.monomial_mul, ring.monomial_div
    gc = g[gm]
    rest = list(g.items())
    p = dict(f)
    get = p.get
    q = {}
    while p:
        m = max(p)
        c = p[m]
        e = div(m, gm)
        if e is None or c % gc:
            return None
        c //= gc
        q[e] = c
        for mg, cg in rest:
            k = mul(mg, e)
            v = get(k, 0) - c * cg
            if v:
                p[k] = v
            else:
                del p[k]
    return q
