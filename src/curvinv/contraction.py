"""Invariant specifications, symmetry abbreviation, index enumeration, and
product counting.

A specification is a list of tensor factors, each carrying one contraction
label per slot.  Enumeration is a join over the factors' sparse stores: it
starts from the factor with the fewest nonzeros and extends each partial
label assignment by probing the next factor's nonzeros on the labels
already bound, so its cost follows the stored components rather than the
D**L possible assignments.  Abbreviated antisymmetric pairs are kept only
with strictly increasing values (compensated by a power-of-two
multiplier), and the survivors are sorted into odometer order, first label
fastest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expr import RawSum
from .tensor import LOWER, UPPER, TensorField


class SpecError(Exception):
    """Malformed invariant specification."""


class PlanError(Exception):
    """Specification and tensors disagree (rank, variance, or dimension)."""


BASE_RANKS = {"R": 4}
BASE_ANTISYM = {"R": frozenset({(0, 1), (2, 3)})}
MAX_DERIVATIVE_ORDER = 2


@dataclass(frozen=True)
class FactorSpec:
    """One tensor factor: base symbol, derivative slots, and per-slot labels."""

    base: str
    derivative_order: int
    labels: tuple
    variance: tuple
    antisym_pairs: frozenset

    @property
    def rank(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class InvariantSpec:
    factors: tuple
    label_names: tuple  # id -> name, in order of first appearance
    free_labels: frozenset  # names marked free (appear exactly once)

    @property
    def label_count(self) -> int:
        return len(self.label_names)

    def factor_label_ids(self) -> list:
        index = {name: i for i, name in enumerate(self.label_names)}
        return [tuple(index[name] for name in f.labels) for f in self.factors]


_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\((.*)\)$")
_SLOT_RE = re.compile(r"([+\-−])(\*?)([A-Za-z_][A-Za-z0-9_]*)$")


def _parse_slot(token: str):
    m = _SLOT_RE.match(token.strip())
    if not m:
        raise SpecError("bad index slot %r" % token)
    sign, star, name = m.groups()
    return name, UPPER if sign == "+" else LOWER, bool(star)


def parse_spec(text: str) -> InvariantSpec:
    """Parse the invariant DSL: whitespace-separated factors of the form
    R(+a,+b,-c,-d[;+e[,+f]]) where + and - set slot variance, the segment
    after ';' lists covariant-derivative slots, and a '*' prefix marks a
    label as free (uncontracted)."""
    tokens = text.split()
    if not tokens:
        raise SpecError("empty specification")
    factors = []
    label_names = []
    free_names = set()
    seen_variances = {}  # label -> variance of each slot it sits on
    for token in tokens:
        m = _FACTOR_RE.match(token)
        if not m:
            raise SpecError("bad factor %r" % token)
        base, body = m.groups()
        if base not in BASE_RANKS:
            raise SpecError("unknown base tensor %r" % base)
        head, _, deriv = body.partition(";")
        base_slots = [s for s in head.split(",") if s.strip()]
        deriv_slots = [s for s in deriv.split(",") if s.strip()]
        if len(base_slots) != BASE_RANKS[base]:
            raise SpecError(
                "%s takes %d indices, got %d" % (base, BASE_RANKS[base], len(base_slots))
            )
        if len(deriv_slots) > MAX_DERIVATIVE_ORDER:
            raise SpecError("at most %d derivative slots supported" % MAX_DERIVATIVE_ORDER)
        labels = []
        variance = []
        for token_slot in base_slots + deriv_slots:
            name, var, free = _parse_slot(token_slot)
            labels.append(name)
            variance.append(var)
            if name not in seen_variances:
                seen_variances[name] = []
                label_names.append(name)
            seen_variances[name].append(var)
            if free:
                free_names.add(name)
        factors.append(
            FactorSpec(
                base=base,
                derivative_order=len(deriv_slots),
                labels=tuple(labels),
                variance=tuple(variance),
                antisym_pairs=BASE_ANTISYM[base],
            )
        )
    for name, variances in seen_variances.items():
        if name in free_names:
            if len(variances) != 1:
                raise SpecError("free label %r must appear exactly once" % name)
        elif len(variances) != 2:
            raise SpecError(
                "label %r appears %d times; contracted labels appear exactly twice"
                % (name, len(variances))
            )
        elif variances[0] == variances[1]:
            # a sum over two upper (or two lower) slots is not a contraction
            raise SpecError(
                "contracted label %r must be upper on one slot and lower on the other"
                % name
            )
    return InvariantSpec(
        factors=tuple(factors),
        label_names=tuple(label_names),
        free_labels=frozenset(free_names),
    )


def detect_abbreviable_pairs(spec: InvariantSpec):
    """Label pairs whose summation can be restricted to ordered values.

    A pair abbreviates when two factors carry the same two labels, in the
    same order, on adjacent antisymmetric slot pairs whose two slots share a
    variance in each factor (R^a_b is not antisymmetric); each abbreviated
    pair doubles the multiplier.
    """
    pairs = set()
    factors = spec.factors
    for fi, f in enumerate(factors):
        for fj in range(fi, len(factors)):
            g = factors[fj]
            for i, i2 in f.antisym_pairs:
                for j, j2 in g.antisym_pairs:
                    if fi == fj and i == j:
                        continue
                    if f.labels[i] != g.labels[j] or f.labels[i2] != g.labels[j2]:
                        continue
                    if f.variance[i] != f.variance[i2] or g.variance[j] != g.variance[j2]:
                        continue
                    if f.labels[i] in spec.free_labels or f.labels[i2] in spec.free_labels:
                        continue
                    pairs.add((f.labels[i], f.labels[i2]))
    return frozenset(pairs), 2 ** len(pairs)


def symmetric_derivative_pairs(spec: InvariantSpec):
    """Label pairs sitting on aligned second-derivative slots in two factors;
    counted as symmetric index pairs in the worst-case product estimate."""
    pairs = set()
    factors = spec.factors
    for fi, f in enumerate(factors):
        if f.derivative_order != 2:
            continue
        i = f.rank - 2
        for fj in range(fi, len(factors)):
            g = factors[fj]
            if g.derivative_order != 2 or (fi == fj):
                continue
            j = g.rank - 2
            if f.labels[i] == g.labels[j] and f.labels[i + 1] == g.labels[j + 1]:
                if f.labels[i] not in spec.free_labels and f.labels[i + 1] not in spec.free_labels:
                    pairs.add((f.labels[i], f.labels[i + 1]))
    return frozenset(pairs)


@dataclass(frozen=True)
class ContractionPlan:
    """Materialized enumeration: surviving label assignments in cycling order."""

    sum_index_array: tuple
    multiplier: int
    dim: int

    @property
    def product_count(self) -> int:
        return len(self.sum_index_array)


def _check_tensors(spec: InvariantSpec, tensors, dim: int):
    if len(tensors) != len(spec.factors):
        raise PlanError(
            "spec has %d factors but %d tensors given" % (len(spec.factors), len(tensors))
        )
    for f, t in zip(spec.factors, tensors):
        if t.rank != f.rank:
            raise PlanError("factor rank %d vs tensor rank %d" % (f.rank, t.rank))
        if t.dim != dim:
            raise PlanError("tensor dimension %d does not match %d" % (t.dim, dim))
        if tuple(t.variance) != tuple(f.variance):
            raise PlanError(
                "tensor variance %s does not match factor %s"
                % ("".join(t.variance), "".join(f.variance))
            )


def _join(spec: InvariantSpec, tensors, dim: int, abbreviated) -> list:
    """Label assignments whose components are all stored and whose
    abbreviated pairs increase strictly, sorted by the reversed tuple."""
    index = {name: i for i, name in enumerate(spec.label_names)}
    pending = [(index[x], index[y]) for x, y in sorted(abbreviated)]
    factor_ids = spec.factor_label_ids()
    stores = [t.components for t in tensors]
    # A label on no factor (possible only in a hand-built spec) takes every value.
    for lid in set(range(spec.label_count)).difference(*factor_ids):
        factor_ids.append((lid,))
        stores.append(dict.fromkeys((v,) for v in range(dim)))
    remaining = list(range(len(stores)))
    position = {}  # label id -> its place in the partial assignments
    states = [()]
    while remaining:
        # Most labels already bound first, then fewest nonzeros.
        f = max(remaining, key=lambda f: (len(position.keys() & factor_ids[f]), -len(stores[f])))
        remaining.remove(f)
        ids = factor_ids[f]
        bound = [s for s, i in enumerate(ids) if i in position]
        lookup = [position[ids[s]] for s in bound]
        # Probe on the bound slots; a repeated new label must agree across its slots.
        first = {i: ids.index(i) for i in ids if i not in position}
        repeats = [(s, first[i]) for s, i in enumerate(ids) if first.get(i, s) != s]
        probe = {}
        for key in stores[f]:
            if all(key[s] == key[t] for s, t in repeats):
                tail = tuple(key[s] for s in first.values())
                probe.setdefault(tuple(key[s] for s in bound), []).append(tail)
        for i in first:
            position[i] = len(position)
        checks = [
            (position[i], position[j])
            for i, j in pending
            if i in position and j in position and (i in first or j in first)
        ]
        states = [
            state
            for prefix in states
            for tail in probe.get(tuple(prefix[p] for p in lookup), ())
            for state in (prefix + tail,)
            if all(state[j] > state[i] for i, j in checks)
        ]
        if not states:
            return []
    order = [position[i] for i in range(spec.label_count)]
    return sorted((tuple(s[p] for p in order) for s in states), key=lambda e: e[::-1])


def enumerate_indices(spec: InvariantSpec, tensors, dim: int) -> ContractionPlan:
    """Join the factors' nonzero stores into the assignments whose
    components all exist, abbreviated pairs strictly increasing, in
    odometer order (first label fastest)."""
    _check_tensors(spec, tensors, dim)
    abbreviated, multiplier = detect_abbreviable_pairs(spec)
    entries = _join(spec, tensors, dim, abbreviated)
    return ContractionPlan(
        sum_index_array=tuple(entries),
        multiplier=multiplier,
        dim=dim,
    )


class ProductEvaluator:
    """Looks up the components one enumerated assignment addresses."""

    def __init__(self, spec: InvariantSpec, tensors):
        self.factor_ids = spec.factor_label_ids()
        self.stores = [t.components for t in tensors]

    def factors(self, entry: tuple) -> list:
        """The entry's component of each factor, in factor order."""
        return [
            store[tuple(entry[i] for i in ids)]
            for ids, store in zip(self.factor_ids, self.stores)
        ]


def worst_case_product_count(spec: InvariantSpec, dim: int) -> int:
    """Upper bound on enumerated products: D per lone label, D(D-1)/2 per
    abbreviated antisymmetric pair, D(D+1)/2 per symmetric derivative pair.
    """
    abbreviated, _ = detect_abbreviable_pairs(spec)
    symmetric = symmetric_derivative_pairs(spec)
    consumed = {name for pair in abbreviated | symmetric for name in pair}
    count = 1
    for _ in abbreviated:
        count *= dim * (dim - 1) // 2
    for _ in symmetric:
        count *= dim * (dim + 1) // 2
    lone = len([name for name in spec.label_names if name not in consumed])
    return count * dim ** lone


def independent_component_count(dim: int) -> int:
    """D**2 (D**2 - 1) / 12 independent curvature components."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return dim * dim * (dim * dim - 1) // 12


def contract_free(spec: InvariantSpec, tensors, dim: int) -> TensorField:
    """Group the joined assignments by their free labels and sum each
    group's products, giving a field over the free slots (rank 0 when no
    label is free).  Each free key sums its products in an
    ``expr.RawSum``, with the abbreviation multiplier as each product's
    coefficient."""
    _check_tensors(spec, tensors, dim)
    abbreviated, multiplier = detect_abbreviable_pairs(spec)
    free_ids = [i for i, name in enumerate(spec.label_names) if name in spec.free_labels]
    # Free labels sit on exactly one slot each.
    slot_variance = {n: v for f in spec.factors for n, v in zip(f.labels, f.variance)}
    variance = tuple(slot_variance[spec.label_names[i]] for i in free_ids)
    evaluator = ProductEvaluator(spec, tensors)
    env = tensors[0].env
    sums = {}
    for entry in _join(spec, tensors, dim, abbreviated):
        key = tuple(entry[i] for i in free_ids)
        if key not in sums:
            sums[key] = RawSum(env)
        sums[key].add_product(evaluator.factors(entry), multiplier)
    # Keys in odometer order; TensorField drops components that cancel to zero.
    components = {key: sums[key].value() for key in sorted(sums, key=lambda k: k[::-1])}
    return TensorField(env, dim, variance, components)
