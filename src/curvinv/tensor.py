"""Metric geometry: inverse metric, Christoffel symbols, Riemann tensor,
index raising/lowering, and covariant derivatives over sparse component
stores.

Component stores map full index tuples to canonical nonzero expressions;
an absent key means the component is identically zero.  Fields are
immutable once built and safe to share across worker processes.

A field's ``antisym_pairs`` are adjacent slot pairs (p, p+1) whose index
swap negates the component; the constructor rejects a store that breaks
them.  Raising, lowering and the covariant derivative use them to save
work: they compute only the output keys oriented on every antisymmetric
pair, ``key[p] < key[p+1]``, and fill each swapped key with the negated
value.  Canonical forms are unique, so the filled component is exactly the
one the full computation would give; keys with equal indices on a pair are
zero and stay absent.

Christoffel symbols, both stages of Riemann and the covariant derivative
build each component as a sum of products of canonical components, and
sum them in an ``expr.RawSum``: the products stay raw, grouped by
denominator, and each group is canonicalised once.  The component is the
same canonical expression that summing canonical products gives.  Raising
and lowering keep summing canonical products (see ``_contract_slot``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .expr import Expr, RawSum, SymbolEnv


class TensorError(Exception):
    """Structural misuse of a tensor operation."""


class SingularMetricError(TensorError):
    """Metric has no inverse (zero determinant)."""


UPPER = "u"
LOWER = "l"


@dataclass
class OpCounter:
    """Accumulates the nonzero scalar multiplications of the literal index
    raising: one per (stored component, inverse-metric row entry) pair,
    whether the product is computed or its key is filled by antisymmetry."""

    mults: int = 0


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
            if value.is_zero:
                continue
            prior = store.get((b, a))
            if prior is not None and prior != value:
                raise TensorError("metric components must be symmetric")
            store[(a, b)] = value
            store[(b, a)] = value
        self.env = env
        self.dim = dim
        self.components = store
        self._inverse = None
        self._zero = env.zero()

    def component(self, a: int, b: int) -> Expr:
        return self.components.get((a, b), self._zero)

    def rows(self) -> list:
        """Sparse rows: rows()[a] lists (b, g_ab) for nonzero entries."""
        return _rows(self.dim, self.components)

    def as_field(self) -> "TensorField":
        return TensorField(self.env, self.dim, (LOWER, LOWER), dict(self.components))

    def inverse(self) -> "TensorField":
        if self._inverse is None:
            self._inverse = inverse_metric(self)
        return self._inverse

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

    ``antisym_pairs`` lists adjacent slot pairs (p, p+1) whose index swap
    negates the component; the metadata is only meaningful while both slots
    share the same variance, so raising a single slot of a pair parks it in
    ``mixed_pairs`` until its partner is raised too.  Pairs must be in range
    and disjoint, and every stored key must have distinct indices on each
    antisymmetric pair and its swapped key stored with the negated value:
    operations trust the metadata to fill components they do not compute.
    """

    def __init__(
        self,
        env: SymbolEnv,
        dim: int,
        variance: tuple,
        components: Mapping,
        antisym_pairs: frozenset = frozenset(),
        mixed_pairs: frozenset = frozenset(),
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
        _check_pairs(rank, antisym_pairs, mixed_pairs, store)
        self.env = env
        self.dim = dim
        self.rank = rank
        self.variance = tuple(variance)
        self.components = store
        self.antisym_pairs = frozenset(antisym_pairs)
        self.mixed_pairs = frozenset(mixed_pairs)
        self._zero = env.zero()

    def component(self, key: tuple) -> Expr:
        return self.components.get(tuple(key), self._zero)

    def nnz(self) -> int:
        return len(self.components)

    def items(self):
        return self.components.items()

    def same_components(self, other: "TensorField") -> bool:
        return self.components == other.components


def _check_pairs(rank: int, antisym_pairs, mixed_pairs, store: Mapping):
    seen = set()
    for pair in list(antisym_pairs) + list(mixed_pairs):
        p, q = pair
        if q != p + 1 or not 0 <= p or q >= rank or seen & {p, q}:
            raise TensorError(
                "slot pair %r is not an adjacent, disjoint pair of a rank-%d field"
                % (pair, rank)
            )
        seen.update(pair)
    for p, q in antisym_pairs:
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


def _swapped(key: tuple, p: int) -> tuple:
    return key[:p] + (key[p + 1], key[p]) + key[p + 2 :]


def _oriented(key: tuple, pairs) -> bool:
    return all(key[p] < key[p + 1] for p, _ in pairs)


def _mirrored(oriented: Mapping, pairs) -> dict:
    """Full store from the components at oriented keys: each antisymmetric
    pair in turn adds the swapped key of every key so far, negated."""
    store = dict(oriented)
    for p, _ in pairs:
        for key, value in list(store.items()):
            store[_swapped(key, p)] = -value
    return store


class ChristoffelField:
    """Connection coefficients Gamma^a_bc, symmetric in the lower pair."""

    def __init__(self, env: SymbolEnv, dim: int, components: Mapping):
        store = {}
        for (a, b, c), value in components.items():
            if value.is_zero:
                continue
            if b > c:
                b, c = c, b
            store[(a, b, c)] = value
        self.env = env
        self.dim = dim
        self.components = store
        self._zero = env.zero()

    def component(self, a: int, b: int, c: int) -> Expr:
        if b > c:
            b, c = c, b
        return self.components.get((a, b, c), self._zero)

    def nnz(self) -> int:
        return len(self.components)


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


def christoffel(g: Metric) -> ChristoffelField:
    """Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_bd - d_d g_bc).

    Each component sums the products (1/2) g^ad d_x g_yz raw, grouped by
    denominator (``expr.RawSum``).
    """
    dim, env = g.dim, g.env
    ginv_rows = _rows(dim, g.inverse().components)
    coords = env.coordinates
    dg = {}

    def metric_derivative(a, b, x):
        key = (a, b, x) if a <= b else (b, a, x)
        if key not in dg:
            dg[key] = g.component(key[0], key[1]).diff(coords[x])
        return dg[key]

    half = env.one() / env.integer(2)
    components = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(b, dim):
                total = RawSum(env)
                for d, g_ad in ginv_rows[a]:
                    total.add_product((half, g_ad, metric_derivative(d, c, b)))
                    total.add_product((half, g_ad, metric_derivative(b, d, c)))
                    total.add_product((half, g_ad, metric_derivative(b, c, d)), -1)
                components[(a, b, c)] = total.value()
    return ChristoffelField(env, dim, components)


def riemann_lowered(g: Metric, gamma: Optional[ChristoffelField] = None) -> TensorField:
    """All-lower Riemann tensor, antisymmetric in slots (0,1) and (2,3).

    Built from R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb, then lowered with the
    metric.  Only c < d is computed; the (2,3) swap fills the rest.  The
    (0,1) antisymmetry is left to emerge from the computation so tests can
    verify it independently.  ``gamma`` is the metric's connection when the
    caller already has it; otherwise it is built here.

    Both stages sum raw products grouped by denominator (``expr.RawSum``):
    the derivative and Gamma Gamma terms of each R^a_bcd, then the
    products g_ae R^e_bcd of each lowered component.
    """
    dim, env = g.dim, g.env
    if gamma is None:
        gamma = christoffel(g)
    coords = env.coordinates
    dgamma = {}

    def gamma_derivative(a, b, c, x):
        if b > c:
            b, c = c, b
        key = (a, b, c, x)
        if key not in dgamma:
            value = gamma.component(a, b, c)
            dgamma[key] = None if value.is_zero else value.diff(coords[x])
        return dgamma[key]

    up = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(c + 1, dim):
                    total = RawSum(env)
                    t1 = gamma_derivative(a, d, b, c)
                    if t1 is not None:
                        total.add_product((t1,))
                    t2 = gamma_derivative(a, c, b, d)
                    if t2 is not None:
                        total.add_product((t2,), -1)
                    for e in range(dim):
                        total.add_product((gamma.component(a, c, e), gamma.component(e, d, b)))
                        total.add_product(
                            (gamma.component(a, d, e), gamma.component(e, c, b)), -1
                        )
                    value = total.value()
                    if not value.is_zero:
                        up[(a, b, c, d)] = value

    g_rows = g.rows()
    components = {}
    for a in range(dim):
        row = g_rows[a]
        for b in range(dim):
            for c in range(dim):
                for d in range(c + 1, dim):
                    total = RawSum(env)
                    for e, g_ae in row:
                        value = up.get((e, b, c, d))
                        if value is not None:
                            total.add_product((g_ae, value))
                    value = total.value()
                    if not value.is_zero:
                        components[(a, b, c, d)] = value
                        components[(a, b, d, c)] = -value
    return TensorField(
        env,
        dim,
        (LOWER, LOWER, LOWER, LOWER),
        components,
        antisym_pairs=frozenset({(0, 1), (2, 3)}),
    )


def _repaired_pairs(field: TensorField, slot: int, new_variance: tuple):
    antisym = set()
    mixed = set()
    for pair in field.antisym_pairs | field.mixed_pairs:
        if slot in pair:
            if new_variance[pair[0]] == new_variance[pair[1]]:
                antisym.add(pair)
            else:
                mixed.add(pair)
        elif pair in field.antisym_pairs:
            antisym.add(pair)
        else:
            mixed.add(pair)
    return frozenset(antisym), frozenset(mixed)


def _contract_slot(field, slot, rows, new_char, counter):
    """Contract ``slot`` with a metric's sparse ``rows``, summing canonical
    products.

    Unlike the other builders, this does not group raw products by
    denominator (``expr.RawSum``): a raised component sums only a few
    products, one per metric row entry, so there are few GCDs to save.
    Grouped raising, timed on a 2-vCPU VM over three alternating runs of
    the raisings of Kerr D=4 I_b at a=1 and S^6 I_2, was neutral on Kerr
    (0.47-0.74 s canonical, 0.45-0.65 s grouped) and slower on S^6
    (0.15-0.24 s canonical, 0.19-0.26 s grouped).
    """
    variance = list(field.variance)
    variance[slot] = new_char
    variance = tuple(variance)
    antisym, mixed = _repaired_pairs(field, slot, variance)
    accumulated = {}
    for key, value in field.components.items():
        e = key[slot]
        if counter is not None:
            counter.mults += len(rows[e])
        prefix, suffix = key[:slot], key[slot + 1 :]
        for k, weight in rows[e]:
            out_key = prefix + (k,) + suffix
            if not _oriented(out_key, antisym):
                continue
            product = weight * value
            prior = accumulated.get(out_key)
            accumulated[out_key] = product if prior is None else prior + product
    return TensorField(
        field.env,
        field.dim,
        variance,
        _mirrored(accumulated, antisym),
        antisym_pairs=antisym,
        mixed_pairs=mixed,
    )


def _rows(dim: int, components: Mapping) -> list:
    """Sparse rows of a rank-2 store: rows[a] lists (b, value) by b."""
    rows = [[] for _ in range(dim)]
    for (a, b), value in sorted(components.items()):
        rows[a].append((b, value))
    return rows


def raise_index(
    t: TensorField, slot: int, g_inv: TensorField, counter: Optional[OpCounter] = None
) -> TensorField:
    """Contract slot with the inverse metric, flipping it to upper variance.

    Only output keys oriented on the output's antisymmetric pairs are
    computed; their swapped keys are filled by negation.  ``counter`` still
    tallies every product of two nonzero components of the literal raising,
    one per stored component and inverse-metric row entry, computed or
    filled; the tally feeds the run statistic that also counts the
    enumerated sum products.
    """
    if not 0 <= slot < t.rank:
        raise TensorError("slot %d out of range for rank %d" % (slot, t.rank))
    if t.variance[slot] != LOWER:
        raise TensorError("slot %d is already upper" % slot)
    return _contract_slot(t, slot, _rows(g_inv.dim, g_inv.components), UPPER, counter)


def lower_index(
    t: TensorField, slot: int, g: Metric, counter: Optional[OpCounter] = None
) -> TensorField:
    if not 0 <= slot < t.rank:
        raise TensorError("slot %d out of range for rank %d" % (slot, t.rank))
    if t.variance[slot] != UPPER:
        raise TensorError("slot %d is already lower" % slot)
    return _contract_slot(t, slot, g.rows(), LOWER, counter)


def covariant_derivative(t: TensorField, gamma: ChristoffelField) -> TensorField:
    """Append one lower derivative slot: nabla_e T_... = d_e T_... - sum of
    Gamma^f_{e i_s} T_{..f..} over the original slots.

    Requires an all-lower input; raising is deferred until all derivatives
    are taken.  The output keeps the input's antisymmetric pairs, so only
    keys oriented on them are computed: partial derivatives of oriented
    components, and connection terms whose target key is oriented.  The
    swapped keys are filled by negation.  Each output component sums its
    partial derivative and connection products raw, grouped by denominator
    (``expr.RawSum``).
    """
    if any(v != LOWER for v in t.variance):
        raise TensorError("covariant derivative expects an all-lower field")
    dim, env = t.dim, t.env
    coords = env.coordinates
    pairs = t.antisym_pairs
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
                    w = gamma.component(f, e, i)
                    if not w.is_zero:
                        add(prefix + (i,) + suffix + (e,), (w, value), -1)
    accumulated = {key: total.value() for key, total in sums.items()}
    return TensorField(
        env,
        dim,
        t.variance + (LOWER,),
        _mirrored(accumulated, pairs),
        antisym_pairs=pairs,
    )


def riemann_independent_nonzero_count(field: TensorField) -> int:
    """Number of distinct nonzero components modulo the pair antisymmetries
    and the pair-exchange symmetry."""
    reps = set()
    for a, b, c, d in field.components:
        p = (a, b) if a <= b else (b, a)
        q = (c, d) if c <= d else (d, c)
        reps.add((p, q) if p <= q else (q, p))
    return len(reps)
