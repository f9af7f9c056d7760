"""Metric geometry: inverse metric, Christoffel symbols, Riemann tensor,
index raising/lowering, and covariant derivatives over sparse component
stores.

Component stores map full index tuples to canonical nonzero expressions;
an absent key means the component is identically zero.  Fields are
immutable once built and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .expr import Expr, SymbolEnv, balanced_sum


class TensorError(Exception):
    """Structural misuse of a tensor operation."""


class SingularMetricError(TensorError):
    """Metric has no inverse (zero determinant)."""


UPPER = "u"
LOWER = "l"


@dataclass
class OpCounter:
    """Accumulates nonzero scalar multiplications spent on index raising."""

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
        rows = [[] for _ in range(self.dim)]
        for (a, b), value in sorted(self.components.items()):
            rows[a].append((b, value))
        return rows

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
    ``mixed_pairs`` until its partner is raised too.
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
    """Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_bd - d_d g_bc)."""
    dim, env = g.dim, g.env
    ginv_rows = [[] for _ in range(dim)]
    for (a, d), value in sorted(g.inverse().items()):
        ginv_rows[a].append((d, value))
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
                total = None
                for d, g_ad in ginv_rows[a]:
                    term = (
                        metric_derivative(d, c, b)
                        + metric_derivative(b, d, c)
                        - metric_derivative(b, c, d)
                    )
                    if term.is_zero:
                        continue
                    piece = g_ad * term
                    total = piece if total is None else total + piece
                if total is not None and not total.is_zero:
                    components[(a, b, c)] = half * total
    return ChristoffelField(env, dim, components)


def riemann_lowered(g: Metric, gamma: Optional[ChristoffelField] = None) -> TensorField:
    """All-lower Riemann tensor, antisymmetric in slots (0,1) and (2,3).

    Built from R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb, then lowered with the
    metric.  Only c < d is computed; the (2,3) swap fills the rest.  The
    (0,1) antisymmetry is left to emerge from the computation so tests can
    verify it independently.  ``gamma`` is the metric's connection when the
    caller already has it; otherwise it is built here.
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
                    total = None
                    t1 = gamma_derivative(a, d, b, c)
                    if t1 is not None and not t1.is_zero:
                        total = t1
                    t2 = gamma_derivative(a, c, b, d)
                    if t2 is not None and not t2.is_zero:
                        total = -t2 if total is None else total - t2
                    for e in range(dim):
                        g1 = gamma.component(a, c, e)
                        if not g1.is_zero:
                            h1 = gamma.component(e, d, b)
                            if not h1.is_zero:
                                piece = g1 * h1
                                total = piece if total is None else total + piece
                        g2 = gamma.component(a, d, e)
                        if not g2.is_zero:
                            h2 = gamma.component(e, c, b)
                            if not h2.is_zero:
                                piece = g2 * h2
                                total = -piece if total is None else total - piece
                    if total is not None and not total.is_zero:
                        up[(a, b, c, d)] = total

    g_rows = g.rows()
    components = {}
    for a in range(dim):
        row = g_rows[a]
        for b in range(dim):
            for c in range(dim):
                for d in range(c + 1, dim):
                    total = None
                    for e, g_ae in row:
                        value = up.get((e, b, c, d))
                        if value is None:
                            continue
                        piece = g_ae * value
                        total = piece if total is None else total + piece
                    if total is not None and not total.is_zero:
                        components[(a, b, c, d)] = total
                        components[(a, b, d, c)] = -total
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
    accumulated = {}
    for key, value in field.components.items():
        e = key[slot]
        prefix, suffix = key[:slot], key[slot + 1 :]
        for k, weight in rows[e]:
            out_key = prefix + (k,) + suffix
            product = weight * value
            if counter is not None:
                counter.mults += 1
            prior = accumulated.get(out_key)
            accumulated[out_key] = product if prior is None else prior + product
    variance = list(field.variance)
    variance[slot] = new_char
    variance = tuple(variance)
    antisym, mixed = _repaired_pairs(field, slot, variance)
    return TensorField(
        field.env,
        field.dim,
        variance,
        accumulated,
        antisym_pairs=antisym,
        mixed_pairs=mixed,
    )


def _symmetric_rows(field2: TensorField) -> list:
    rows = [[] for _ in range(field2.dim)]
    for (a, b), value in sorted(field2.items()):
        rows[a].append((b, value))
    return rows


def raise_index(
    t: TensorField, slot: int, g_inv: TensorField, counter: Optional[OpCounter] = None
) -> TensorField:
    """Contract slot with the inverse metric, flipping it to upper variance.

    Every product of two nonzero components performed here is tallied on
    ``counter``; the tally feeds the run statistic that also counts the
    enumerated sum products.
    """
    if not 0 <= slot < t.rank:
        raise TensorError("slot %d out of range for rank %d" % (slot, t.rank))
    if t.variance[slot] != LOWER:
        raise TensorError("slot %d is already upper" % slot)
    return _contract_slot(t, slot, _symmetric_rows(g_inv), UPPER, counter)


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
    are taken.
    """
    if any(v != LOWER for v in t.variance):
        raise TensorError("covariant derivative expects an all-lower field")
    dim, env = t.dim, t.env
    coords = env.coordinates
    pending = {}

    def add(key, value):
        pending.setdefault(key, []).append(value)

    for key, value in t.components.items():
        for e in range(dim):
            d = value.diff(coords[e])
            if not d.is_zero:
                add(key + (e,), d)
        for s in range(t.rank):
            f = key[s]
            prefix, suffix = key[:s], key[s + 1 :]
            for e in range(dim):
                for i in range(dim):
                    w = gamma.component(f, e, i)
                    if w.is_zero:
                        continue
                    add(prefix + (i,) + suffix + (e,), -(w * value))
    zero = env.zero()
    accumulated = {key: balanced_sum(parts, zero) for key, parts in pending.items()}
    return TensorField(
        env,
        dim,
        t.variance + (LOWER,),
        accumulated,
        antisym_pairs=t.antisym_pairs,
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
