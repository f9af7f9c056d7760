"""Metric geometry: inverse metric, Christoffel symbols, Riemann tensor,
index raising, and covariant derivatives over sparse component stores.

Component stores map full index tuples to canonical nonzero expressions;
an absent key means the component is identically zero.  Fields are
immutable once built and safe to share across worker processes.

A field's ``antisym_pairs`` are adjacent slot pairs (p, p+1) on which the
tensor is antisymmetric.  Whether swapping a pair's indices negates a
component follows from the variance alone: it does when both slots share
a variance, and those pairs are the field's ``oriented_pairs``.  The
constructor rejects a store that breaks them.  Index raising and the
covariant derivative use them to save work: they compute only the output
keys oriented on every such pair, ``key[p] < key[p+1]``, and fill each
swapped key with the negated value.  The Riemann tensor also uses its pair
exchange R_abcd = R_cdab: it is built from the metric only at its
independent keys, a < b, c < d and (a, b) <= (c, d), and the other keys
are filled.  Canonical forms are unique, so a filled component is exactly
the one the full computation would give; keys with equal indices on a
pair are zero and stay absent.

A ``Metric`` memoises what is derived from it alone, each piece built on
first use: its inverse (``inverse``), its partial derivatives
(``derivative``) and its connection of the first kind
Gamma_ead = (1/2)(d_a g_ed + d_d g_ea - d_e g_ad) (``first_kind``).
``christoffel`` and ``riemann_lowered`` both read them, so each derivative
and each first-kind sum is computed once per metric.  The fields built
from a metric are memoised by the pipeline.

The connection (Christoffel symbols) is a ``TensorField`` of variance
(u, l, l) that stores both orientations of its symmetric lower pair, so
``gamma.component((a, b, c))`` needs no index sorting.

Every builder (Christoffel symbols, Riemann, raising and the covariant
derivative) forms each component as a sum of products of canonical
components, and sums them in an ``expr.RawSum``: only the numerators of
the products are multiplied out, the products are grouped by their
factors' denominators, the groups are brought together over the env's
coprime basis of denominators, and the whole sum is canonicalised once.
The component is the same canonical expression that summing canonical
products gives.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .expr import Expr, RawSum, SymbolEnv


class TensorError(Exception):
    """Structural misuse of a tensor operation."""


class SingularMetricError(TensorError):
    """Metric has no inverse (zero determinant)."""


UPPER = "u"
LOWER = "l"


class Metric:
    """Symmetric rank-2 metric g_ab with a nonzero determinant."""

    def __init__(self, env: SymbolEnv, dim: int, components: Mapping):
        if dim < 1:
            raise TensorError("metric dimension must be >= 1")
        if len(env.coordinates) != dim:
            raise TensorError("environment must carry exactly dim coordinates")
        store = {}
        for (a, b), value in components.items():
            if not 0 <= a < dim or not 0 <= b < dim:
                raise TensorError("metric index out of range: %r" % ((a, b),))
            transpose = components.get((b, a))
            if transpose is not None and transpose != value:
                raise TensorError("metric components must be symmetric")
            if not value.is_zero:
                store[(a, b)] = store[(b, a)] = value
        self.env = env
        self.dim = dim
        self.components = store
        self._zero = env.zero()
        self._half = env.one() / env.integer(2)
        # Derived data, built on first use.  Plain dicts, not closures over
        # the metric: a reference cycle would keep the metric alive after the
        # pipeline's weak cache has let it go.
        self._inverse = None
        self._derivatives = {}
        self._first_kind = {}

    def component(self, a: int, b: int) -> Expr:
        return self.components.get((a, b), self._zero)

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
            return self.component(a, b)
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

        Only parameters may be fixed: a coordinate or sin/cos symbol set to
        a constant before differentiating gives a silently wrong curvature.
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
        return Metric(self.env, self.dim, subbed)


class TensorField:
    """Sparse rank-k field with per-slot variance and antisymmetry metadata.

    ``antisym_pairs`` lists adjacent slot pairs (p, p+1) on which the tensor
    is antisymmetric; pairs must be in range and disjoint.  Its
    ``oriented_pairs`` are the subset whose two slots share a variance,
    where an index swap negates the component.  A pair with one upper and
    one lower slot has no such rule (T^a_b is not -T^b_a), and becomes
    oriented again once its other slot is raised too.  Every stored key
    must have distinct indices on each oriented pair and its swapped key
    stored with the negated value: operations trust the metadata to fill
    components they do not compute.
    """

    def __init__(
        self,
        env: SymbolEnv,
        dim: int,
        variance: tuple,
        components: Mapping,
        antisym_pairs: frozenset = frozenset(),
    ):
        rank = len(variance)
        for v in variance:
            if v not in (UPPER, LOWER):
                raise TensorError("variance slots must be 'u' or 'l'")
        store = {}
        for key, value in components.items():
            if len(key) != rank:
                raise TensorError("component key %r does not match rank %d" % (key, rank))
            if any(not 0 <= i < dim for i in key):
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
    oriented = _same_variance(antisym_pairs, variance)
    for p, q in oriented:
        for key, value in store.items():
            if key[p] == key[q]:
                raise TensorError(
                    "component %r has equal indices on antisymmetric pair %r"
                    % (key, (p, q))
                )
            mirror = store.get(_swapped(key, p))
            if mirror is None or mirror != -value:
                raise TensorError(
                    "component %r is not minus its swap on antisymmetric pair %r"
                    % (key, (p, q))
                )
    return oriented


def _same_variance(pairs, variance: tuple) -> frozenset:
    return frozenset((p, q) for p, q in pairs if variance[p] == variance[q])


def _swapped(key: tuple, p: int) -> tuple:
    return key[:p] + (key[p + 1], key[p]) + key[p + 2 :]


def _oriented(key: tuple, pairs) -> bool:
    return all(key[p] < key[p + 1] for p, _ in pairs)


def _mirrored(oriented: Mapping, pairs) -> dict:
    """Full store from the components at oriented keys: each oriented pair
    in turn adds the swapped key of every key so far, negated."""
    store = dict(oriented)
    for p, _ in pairs:
        for key, value in list(store.items()):
            store[_swapped(key, p)] = -value
    return store


def inverse_metric(g: Metric) -> TensorField:
    """Invert the metric by Gauss-Jordan elimination over exact expressions."""
    dim, env = g.dim, g.env
    zero, one = env.zero(), env.one()
    m = [[g.component(i, j) for j in range(dim)] for i in range(dim)]
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
    """Gamma^a_bc = g^ad Gamma_dbc, from the metric's connection of the
    first kind (``Metric.first_kind``).

    Only b <= c is computed; the field stores the same value at both
    orientations (a, b, c) and (a, c, b) of the symmetric lower pair.  Each
    component sums the products g^ad Gamma_dbc in an ``expr.RawSum``.
    """
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
    return TensorField(env, dim, (UPPER, LOWER, LOWER), components)


def riemann_lowered(g: Metric, gamma: Optional[TensorField] = None) -> TensorField:
    """All-lower Riemann tensor, built directly from the metric:

    R_abcd = (1/2)(d_b d_c g_ad + d_a d_d g_bc - d_a d_c g_bd - d_b d_d g_ac)
             + sum_e (Gamma^e_bc Gamma_ead - Gamma^e_bd Gamma_eac),

    reading the metric derivatives and the connection of the first kind
    Gamma_ead from the metric's memos (``Metric.derivative`` and
    ``Metric.first_kind``), which ``christoffel`` fills too.  Only the
    independent keys a < b, c < d and (a, b) <= (c, d) are computed, each
    summing its products in an ``expr.RawSum``.
    The pair exchange R_cdab = R_abcd puts each value at (a, b, c, d) and
    (c, d, a, b); the antisymmetries in slots (0,1) and (2,3) fill the
    other keys by negation.  ``gamma`` is the metric's connection when the
    caller already has it; otherwise it is built here.
    """
    dim, env = g.dim, g.env
    if gamma is None:
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
                independent[(a, b, c, d)] = independent[(c, d, a, b)] = value
    antisym = frozenset({(0, 1), (2, 3)})
    return TensorField(
        env, dim, (LOWER,) * 4, _mirrored(independent, antisym), antisym_pairs=antisym
    )


def _rows(dim: int, components: Mapping) -> list:
    """Sparse rows of a rank-2 store: rows[a] lists (b, value) by b."""
    rows = [[] for _ in range(dim)]
    for (a, b), value in sorted(components.items()):
        rows[a].append((b, value))
    return rows


def raise_index(t: TensorField, slot: int, g_inv: TensorField) -> TensorField:
    """Contract ``slot`` with the inverse metric, flipping it to upper
    variance: out[..k..] = sum of g^ke t[..e..].

    The output keeps the input's antisymmetric pairs.  Only keys oriented
    on its oriented pairs are computed, each summing its products in an
    ``expr.RawSum``; the swapped keys are filled by negation.
    """
    if not 0 <= slot < t.rank:
        raise TensorError("slot %d out of range for rank %d" % (slot, t.rank))
    if t.variance[slot] != LOWER:
        raise TensorError("slot %d is already upper" % slot)
    rows = _rows(g_inv.dim, g_inv.components)
    out_variance = t.variance[:slot] + (UPPER,) + t.variance[slot + 1 :]
    pairs = _same_variance(t.antisym_pairs, out_variance)
    sums = {}
    for key, value in t.components.items():
        prefix, suffix = key[:slot], key[slot + 1 :]
        for k, weight in rows[key[slot]]:
            out_key = prefix + (k,) + suffix
            if not _oriented(out_key, pairs):
                continue
            total = sums.get(out_key)
            if total is None:
                total = sums[out_key] = RawSum(t.env)
            total.add_product((weight, value))
    accumulated = {key: total.value() for key, total in sums.items()}
    return TensorField(
        t.env,
        t.dim,
        out_variance,
        _mirrored(accumulated, pairs),
        antisym_pairs=t.antisym_pairs,
    )


def covariant_derivative(t: TensorField, gamma: TensorField) -> TensorField:
    """Append one lower derivative slot: nabla_e T_... = d_e T_... - sum of
    Gamma^f_{e i_s} T_{..f..} over the original slots.

    Requires an all-lower input; raising is deferred until all derivatives
    are taken, so every antisymmetric pair of the input is oriented.  The
    output keeps those pairs, and only keys oriented on them are computed:
    partial derivatives of oriented components, and connection terms whose
    target key is oriented.  The swapped keys are filled by negation.  Each
    output component sums its partial derivative and connection products
    in an ``expr.RawSum``.
    """
    if any(v != LOWER for v in t.variance):
        raise TensorError("covariant derivative expects an all-lower field")
    dim, env = t.dim, t.env
    coords = env.coordinates
    pairs = t.oriented_pairs
    sums = {}

    def add(key, values, sign=1):
        total = sums.get(key)
        if total is None:
            total = sums[key] = RawSum(env)
        total.add_product(values, sign)

    for key, value in t.components.items():
        if _oriented(key, pairs):
            for e in range(dim):
                add(key + (e,), (value.diff(coords[e]),))
        for s in range(t.rank):
            f = key[s]
            prefix, suffix = key[:s], key[s + 1 :]
            targets = [i for i in range(dim) if _oriented(prefix + (i,) + suffix, pairs)]
            for e in range(dim):
                for i in targets:
                    w = gamma.component((f, e, i))
                    if not w.is_zero:
                        add(prefix + (i,) + suffix + (e,), (w, value), -1)
    accumulated = {key: total.value() for key, total in sums.items()}
    return TensorField(
        env,
        dim,
        t.variance + (LOWER,),
        _mirrored(accumulated, pairs),
        antisym_pairs=t.antisym_pairs,
    )
