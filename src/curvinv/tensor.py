"""Metric geometry: inverse metric, Christoffel symbols, Riemann tensor,
index raising, and covariant derivatives over sparse component stores.

Component stores map full index tuples to canonical nonzero expressions;
an absent key means the component is identically zero.  Fields are
immutable once built and safe to share across worker processes.

A field's ``antisym_pairs`` are adjacent slot pairs (p, p+1) on which the
tensor is antisymmetric.  Whether swapping a pair's indices negates a
component follows from the variance alone: it does when both slots share
a variance, and those pairs are the field's ``oriented_pairs``.  A field
may also declare Riemann's pair exchange R_abcd = R_cdab (``exchange``),
which ``riemann_lowered`` sets and raising and the covariant derivative
keep; it is active when the first two slots have the variances of the
next two.  The constructor rejects a store that breaks an oriented pair
or an active exchange.  The builders use them to save work: they compute
only the keys oriented on every oriented pair, ``key[p] < key[p+1]``, and,
while the exchange is active, ordered by it, ``key[:2] <= key[2:4]``
(``_computed``).  They fill each exchanged key with the same value and
each swapped key with the negated value (``_filled``).  Canonical forms
are unique, so a filled component is exactly the one the full
computation would give; keys with equal indices on an oriented pair are
zero and stay absent.

A ``Metric`` is a ``TensorField`` of variance (l, l).  ``RIEMANN_PAIRS``
are the antisymmetric pairs ``riemann_lowered`` declares and
``contraction.parse_spec`` gives every R factor.

A ``Metric`` memoises what is derived from it alone, each piece built on
first use: its inverse (``inverse``), its partial derivatives
(``derivative``), its connection of the first kind
Gamma_ead = (1/2)(d_a g_ed + d_d g_ea - d_e g_ad) (``first_kind``) and its
connection (``christoffel``), so each is computed once per metric.  The
Riemann fields built from a metric are memoised by the pipeline.

The connection (Christoffel symbols) is a ``TensorField`` of variance
(u, l, l) that stores both orientations of its symmetric lower pair, so
``gamma.component((a, b, c))`` needs no index sorting.

Every builder forms each component as a sum of products of canonical
components, canonicalised once in an ``expr.RawSum``: the Christoffel
symbols and Riemann fill one per component in their own loops, and
raising and the covariant derivative hand every product with its output
key to ``expr.sum_by_key``.  Raising several slots at once forms each
product of row weights and component in that one sum, so each output
component is canonicalised once, not once per slot.  The component is
the same canonical expression that summing canonical products gives.
"""

from __future__ import annotations

from collections.abc import Mapping

from .expr import Expr, RawSum, SymbolEnv, sum_by_key


class TensorError(Exception):
    """Structural misuse of a tensor operation."""


class SingularMetricError(TensorError):
    """Metric has no inverse (zero determinant)."""


UPPER = "u"
LOWER = "l"

# The Riemann tensor's antisymmetric slot pairs, R_abcd = -R_bacd = -R_abdc.
RIEMANN_PAIRS = frozenset({(0, 1), (2, 3)})


class TensorField:
    """Sparse rank-k field with per-slot variance and antisymmetry metadata.

    ``antisym_pairs`` lists adjacent slot pairs (p, p+1) on which the tensor
    is antisymmetric; pairs must be in range and disjoint.  Its
    ``oriented_pairs`` are the subset whose two slots share a variance,
    where an index swap negates the component.  A pair with one upper and
    one lower slot has no such rule (T^a_b is not -T^b_a), and becomes
    oriented again once its other slot is raised too.  ``exchange``
    declares the pair exchange of slots (0, 1) and (2, 3), with both
    pairs antisymmetric; it is active when ``variance[:2] ==
    variance[2:4]``.  Every stored key must have distinct indices on each
    oriented pair and its swapped key stored with the negated value, and
    under an active exchange its exchanged key stored with the same value:
    operations trust the metadata to fill components they do not compute.
    """

    def __init__(
        self,
        env: SymbolEnv,
        dim: int,
        variance: tuple,
        components: Mapping,
        antisym_pairs: frozenset = frozenset(),
        exchange: bool = False,
    ):
        rank = len(variance)
        for v in variance:
            if v not in (UPPER, LOWER):
                raise TensorError("variance slots must be 'u' or 'l'")
        store = {}
        for key, value in components.items():
            if len(key) != rank:
                raise TensorError("component key %r does not match rank %d" % (key, rank))
            if key and (min(key) < 0 or max(key) >= dim):
                raise TensorError("component index out of range: %r" % (key,))
            if value.is_zero:
                continue
            store[key] = value
        self.env = env
        self.dim = dim
        self.rank = rank
        self.variance = tuple(variance)
        self.components = store
        self.antisym_pairs = frozenset(antisym_pairs)
        self.oriented_pairs = _check_pairs(self.variance, self.antisym_pairs, store)
        self.exchange = exchange
        _check_exchange(self.variance, self.antisym_pairs, exchange, store)
        self._zero = env.zero()

    def component(self, key: tuple) -> Expr:
        return self.components.get(tuple(key), self._zero)

    def nnz(self) -> int:
        return len(self.components)

    def items(self):
        return self.components.items()


def _check_pairs(variance: tuple, antisym_pairs, store: Mapping) -> frozenset:
    """The oriented pairs of ``antisym_pairs``, once the pairs are found in
    range and disjoint and the store honours the oriented ones."""
    rank = len(variance)
    seen = set()
    for pair in antisym_pairs:
        p, q = pair
        if q != p + 1 or not 0 <= p or q >= rank or seen & {p, q}:
            raise TensorError(
                "slot pair %r is not an adjacent, disjoint pair of a rank-%d field"
                % (pair, rank)
            )
        seen.update(pair)
    oriented = same_variance(antisym_pairs, variance)
    for p, q in oriented:
        # Each key with key[p] < key[q] must have its swap, negated.  The
        # swaps of distinct keys are distinct, so when as many keys have
        # key[p] > key[q], those are exactly the swaps and every key has one.
        below = 0
        for key, value in store.items():
            if key[p] < key[q]:
                below += 1
                mirror = store.get(_swapped(key, p))
                if mirror is None or not _negates(mirror, value):
                    raise _swap_error(key, (p, q))
            elif key[p] == key[q]:
                raise TensorError(
                    "component %r has equal indices on antisymmetric pair %r"
                    % (key, (p, q))
                )
        if 2 * below != len(store):
            raise _swap_error(next(k for k in store if _swapped(k, p) not in store), (p, q))
    return oriented


def _swap_error(key: tuple, pair: tuple) -> TensorError:
    return TensorError(
        "component %r is not minus its swap on antisymmetric pair %r" % (key, pair)
    )


def _negates(a: Expr, b: Expr) -> bool:
    """Whether a == -b, compared coefficient by coefficient, without
    building -b."""
    num = a.num
    return (
        a.den == b.den
        and len(num) == len(b.num)
        and all(num.get(m) == -c for m, c in b.num.items())
    )


def _check_exchange(variance: tuple, antisym_pairs, exchange: bool, store: Mapping) -> None:
    """Reject a declared pair exchange without Riemann's antisymmetric
    pairs, or a store that breaks it while it is active."""
    if not exchange:
        return
    if not RIEMANN_PAIRS <= antisym_pairs:
        raise TensorError(
            "the pair exchange needs antisymmetric pairs (0, 1) and (2, 3), not %r"
            % (sorted(antisym_pairs),)
        )
    if not _exchanges(variance, exchange):
        return
    # As for a pair: each key with key[:2] < key[2:4] must have its exchange,
    # equal, and as many keys must have key[:2] > key[2:4].
    below = above = 0
    for key, value in store.items():
        if key[:2] < key[2:4]:
            below += 1
            copy = store.get(_exchanged(key))
            if copy is None or copy != value:
                raise _exchange_error(key)
        elif key[:2] > key[2:4]:
            above += 1
    if below != above:
        raise _exchange_error(next(k for k in store if _exchanged(k) not in store))


def _exchange_error(key: tuple) -> TensorError:
    return TensorError("component %r is not equal to its pair exchange" % (key,))


def same_variance(pairs, variance: tuple) -> frozenset:
    """The slot pairs whose two slots share a variance: the antisymmetric
    pairs on which swapping the indices negates a component."""
    return frozenset((p, q) for p, q in pairs if variance[p] == variance[q])


def _exchanges(variance: tuple, exchange: bool) -> bool:
    """Whether a declared pair exchange is active at this variance: the
    first two slots have the variances of the next two."""
    return exchange and variance[:2] == variance[2:4]


def _swapped(key: tuple, p: int) -> tuple:
    return key[:p] + (key[p + 1], key[p]) + key[p + 2 :]


def _exchanged(key: tuple) -> tuple:
    return key[2:4] + key[:2] + key[4:]


def _computed(key: tuple, pairs, exchange: bool) -> bool:
    """Whether a builder computes ``key``: oriented on every pair of
    ``pairs`` and, with an active exchange, ``key[:2] <= key[2:4]``."""
    return all(key[p] < key[p + 1] for p, _ in pairs) and (
        not exchange or key[:2] <= key[2:4]
    )


def _filled(computed: Mapping, pairs, exchange: bool) -> dict:
    """Full store from the components at computed keys (see ``_computed``):
    an active exchange adds each key's exchange, equal, then each oriented
    pair in turn adds the swapped key of every key so far, negated."""
    store = dict(computed)
    if exchange:
        for key, value in computed.items():
            store[_exchanged(key)] = value
    for p, _ in pairs:
        for key, value in list(store.items()):
            store[_swapped(key, p)] = -value
    return store


class Metric(TensorField):
    """Symmetric metric g_ab with a nonzero determinant: a field of variance
    (l, l) that stores both orientations of each component it is given."""

    def __init__(self, env: SymbolEnv, dim: int, components: Mapping):
        if dim < 1:
            raise TensorError("metric dimension must be >= 1")
        if len(env.coordinates) != dim:
            raise TensorError("environment must carry exactly dim coordinates")
        store = dict(components)
        for key, value in components.items():
            if store.setdefault(key[::-1], value) != value:
                raise TensorError("metric components must be symmetric")
        super().__init__(env, dim, (LOWER, LOWER), store)
        self._half = env.one() / env.integer(2)
        # Derived data, built on first use.  Plain dicts, not closures over
        # the metric: a reference cycle would keep the metric alive after the
        # pipeline's weak cache has let it go.
        self._inverse = None
        self._connection = None
        self._derivatives = {}
        self._first_kind = {}

    def inverse(self) -> "TensorField":
        if self._inverse is None:
            self._inverse = inverse_metric(self)
        return self._inverse

    def derivative(self, a: int, b: int, *xs: int) -> Expr:
        """d_x ... g_ab over the coordinates indexed by ``xs``, memoised.

        Keys sort the symmetric indices and the commuting derivatives, and
        each derivative extends the one below it.
        """
        if not xs:
            return self.component((a, b))
        key = (min(a, b), max(a, b)) + tuple(sorted(xs))
        value = self._derivatives.get(key)
        if value is None:
            below = self.derivative(*key[:-1])
            if not below.is_zero:
                below = below.diff(self.env.coordinates[key[-1]])
            value = self._derivatives[key] = below
        return value

    def first_kind(self, e: int, a: int, d: int) -> Expr:
        """Connection of the first kind, memoised and symmetric in a, d:
        Gamma_ead = (1/2)(d_a g_ed + d_d g_ea - d_e g_ad), one ``RawSum``."""
        key = (e, min(a, d), max(a, d))
        value = self._first_kind.get(key)
        if value is None:
            total = RawSum(self.env)
            total.add_product((self._half, self.derivative(e, d, a)))
            total.add_product((self._half, self.derivative(e, a, d)))
            total.add_product((self._half, self.derivative(a, d, e)), -1)
            value = self._first_kind[key] = total.value()
        return value

    def substitute(self, name: str, value) -> "Metric":
        """Replace a parameter by an exact rational.

        Only parameters may be fixed, once each: a coordinate set to a
        constant before differentiating gives a silently wrong curvature,
        and a value that changes no component would be silently ignored.
        """
        if name not in self.env.parameters:
            raise TensorError(
                "can only substitute a parameter (%s), not %r"
                % (", ".join(self.env.parameters) or "none", name)
            )
        subbed = {}
        for (a, b), expr in self.components.items():
            if a <= b:
                subbed[(a, b)] = expr.substitute(name, value)
        if subbed.items() <= self.components.items():
            raise TensorError("parameter %r is already fixed or never appears" % name)
        return Metric(self.env, self.dim, subbed)


def inverse_metric(g: Metric) -> TensorField:
    """Invert the metric by Gauss-Jordan elimination over exact expressions."""
    dim, env = g.dim, g.env
    zero, one = env.zero(), env.one()
    m = [[g.component((i, j)) for j in range(dim)] for i in range(dim)]
    inv = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        pivot_row = None
        for r in range(col, dim):
            if not m[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMetricError("metric determinant is zero")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = m[col][col]
        if pivot != one:
            for j in range(dim):
                if not m[col][j].is_zero:
                    m[col][j] = m[col][j] / pivot
                if not inv[col][j].is_zero:
                    inv[col][j] = inv[col][j] / pivot
        for r in range(dim):
            if r == col or m[r][col].is_zero:
                continue
            factor = m[r][col]
            for j in range(dim):
                if not m[col][j].is_zero:
                    m[r][j] = m[r][j] - factor * m[col][j]
                if not inv[col][j].is_zero:
                    inv[r][j] = inv[r][j] - factor * inv[col][j]
    components = {}
    for i in range(dim):
        for j in range(dim):
            if not inv[i][j].is_zero:
                components[(i, j)] = inv[i][j]
    return TensorField(env, dim, (UPPER, UPPER), components)


def christoffel(g: Metric) -> TensorField:
    """The metric's connection Gamma^a_bc = g^ad Gamma_dbc, from its
    connection of the first kind (``Metric.first_kind``): built on the first
    call and kept on the metric, so every later call returns that field.

    Only b <= c is computed; the field stores the same value at both
    orientations (a, b, c) and (a, c, b) of the symmetric lower pair.  Each
    component sums the products g^ad Gamma_dbc in an ``expr.RawSum``.
    """
    if g._connection is not None:
        return g._connection
    dim, env = g.dim, g.env
    ginv_rows = _rows(dim, g.inverse().components)
    components = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(b, dim):
                total = RawSum(env)
                for d, g_ad in ginv_rows[a]:
                    total.add_product((g_ad, g.first_kind(d, b, c)))
                components[(a, b, c)] = components[(a, c, b)] = total.value()
    g._connection = TensorField(env, dim, (UPPER, LOWER, LOWER), components)
    return g._connection


def riemann_lowered(g: Metric) -> TensorField:
    """All-lower Riemann tensor, built directly from the metric:

    R_abcd = (1/2)(d_b d_c g_ad + d_a d_d g_bc - d_a d_c g_bd - d_b d_d g_ac)
             + sum_e (Gamma^e_bc Gamma_ead - Gamma^e_bd Gamma_eac),

    reading the metric derivatives, the connection of the first kind
    Gamma_ead and the connection Gamma^e_bc from the metric's memos
    (``Metric.derivative``, ``Metric.first_kind`` and ``christoffel``).
    The field declares the pair exchange, so only its computed keys, the
    independent a < b, c < d and (a, b) <= (c, d), are formed, each summing
    its products in an ``expr.RawSum``; the other keys are filled.
    """
    dim, env = g.dim, g.env
    gamma = christoffel(g)
    dg, half = g.derivative, g._half
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    independent = {}
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i:]:
            total = RawSum(env)
            total.add_product((half, dg(a, d, b, c)))
            total.add_product((half, dg(b, c, a, d)))
            total.add_product((half, dg(b, d, a, c)), -1)
            total.add_product((half, dg(a, c, b, d)), -1)
            for e in range(dim):
                for x, y, sign in ((c, d, 1), (d, c, -1)):
                    w = gamma.component((e, b, x))
                    if not w.is_zero:
                        total.add_product((w, g.first_kind(e, a, y)), sign)
            value = total.value()
            if not value.is_zero:
                independent[(a, b, c, d)] = value
    store = _filled(independent, RIEMANN_PAIRS, True)
    return TensorField(
        env, dim, (LOWER,) * 4, store, antisym_pairs=RIEMANN_PAIRS, exchange=True
    )


def _rows(dim: int, components: Mapping) -> list:
    """Sparse rows of a rank-2 store: rows[a] lists (b, value) by b."""
    rows = [[] for _ in range(dim)]
    for (a, b), value in sorted(components.items()):
        rows[a].append((b, value))
    return rows


def raise_index(t: TensorField, slots, g_inv: TensorField) -> TensorField:
    """Contract each of ``slots`` (one slot or several) with the inverse
    metric, flipping it to upper variance: raising slots s and r gives
    out[..k..l..] = sum of g^ke g^lf t[..e..f..].

    The output keeps the input's antisymmetric pairs and pair exchange.
    Only its computed keys (see ``_computed``) are formed: oriented on the
    pairs that are oriented at the output variance and, while the exchange
    is active there, ordered by it.  Every product (g^ke, g^lf, ...,
    t[..e..f..]) is keyed by its output key, and one ``expr.sum_by_key``
    sums them all, so each output component is canonicalised once however
    many slots are raised.  The other keys are filled (``_filled``).
    """
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    variance = list(t.variance)
    for slot in slots:
        if not 0 <= slot < t.rank:
            raise TensorError("slot %d out of range for rank %d" % (slot, t.rank))
        if variance[slot] != LOWER:
            raise TensorError("slot %d is already upper" % slot)
        variance[slot] = UPPER
    out_variance = tuple(variance)
    rows = _rows(g_inv.dim, g_inv.components)
    pairs = same_variance(t.antisym_pairs, out_variance)
    exchange = _exchanges(out_variance, t.exchange)

    def products():
        for key, value in t.components.items():
            raised = [(key, ())]
            for s in slots:
                raised = [
                    (out[:s] + (k,) + out[s + 1 :], weights + (weight,))
                    for out, weights in raised
                    for k, weight in rows[key[s]]
                ]
            for out, weights in raised:
                if _computed(out, pairs, exchange):
                    yield out, weights + (value,), 1

    accumulated = sum_by_key(t.env, products())
    return TensorField(
        t.env,
        t.dim,
        out_variance,
        _filled(accumulated, pairs, exchange),
        antisym_pairs=t.antisym_pairs,
        exchange=t.exchange,
    )


def covariant_derivative(t: TensorField, gamma: TensorField) -> TensorField:
    """Append one lower derivative slot: nabla_e T_... = d_e T_... - sum of
    Gamma^f_{e i_s} T_{..f..} over the original slots.

    Requires an all-lower input; raising is deferred until all derivatives
    are taken, so every antisymmetric pair of the input is oriented, and a
    declared pair exchange is active (nabla_e R_abcd = nabla_e R_cdab).
    The output keeps the pairs and the exchange, and only its computed
    keys are formed: partial derivatives of computed components, and
    connection terms whose target key is computed.  The other keys are
    filled.  The partial derivatives and connection products are keyed by
    their output key and summed by ``expr.sum_by_key``.
    """
    if any(v != LOWER for v in t.variance):
        raise TensorError("covariant derivative expects an all-lower field")
    dim, env = t.dim, t.env
    coords = env.coordinates
    pairs = t.oriented_pairs
    exchange = _exchanges(t.variance, t.exchange)

    def products():
        for key, value in t.components.items():
            if _computed(key, pairs, exchange):
                for e in range(dim):
                    yield key + (e,), (value.diff(coords[e]),), 1
            for s in range(t.rank):
                f = key[s]
                prefix, suffix = key[:s], key[s + 1 :]
                targets = [
                    i for i in range(dim) if _computed(prefix + (i,) + suffix, pairs, exchange)
                ]
                for e in range(dim):
                    for i in targets:
                        w = gamma.component((f, e, i))
                        if not w.is_zero:
                            yield prefix + (i,) + suffix + (e,), (w, value), -1

    accumulated = sum_by_key(env, products())
    return TensorField(
        env,
        dim,
        t.variance + (LOWER,),
        _filled(accumulated, pairs, exchange),
        antisym_pairs=t.antisym_pairs,
        exchange=t.exchange,
    )
