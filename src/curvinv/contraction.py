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
fastest.  Abbreviated pairs and the symmetric derivative pairs of the
worst-case estimate are one rule with two slot selectors: a label pair
that two of the selected slot pairs carry in the same order.

The contraction checks its tensors once, where it meets them: each has
its factor's rank, slot variances and antisymmetric pairs (an R factor's
are ``tensor.RIEMANN_PAIRS``; abbreviation is sound only on pairs the
tensor declares), and all share one dimension, the labels' range.  The
plan that ``enumerate_indices`` returns keeps those tensors, so a sum of
its assignments' products cannot read any others.

``keyed_products`` is the one stream of products of a plan's entries:
each entry's factor components, keyed by its free labels' values.
``contract_free`` hands a whole plan's to ``expr.sum_by_key``, and
``parallel.execute`` sums it parcel by parcel.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple

from .expr import sum_by_key
from .tensor import LOWER, RIEMANN_PAIRS, UPPER, TensorField, same_variance


class SpecError(Exception):
    """Malformed invariant specification."""


class PlanError(Exception):
    """Specification and tensors disagree: a tensor's rank, slot variances
    or antisymmetric pairs differ from its factor's, or the tensors do not
    share one dimension."""


MAX_DERIVATIVE_ORDER = 2


class FactorSpec(
    namedtuple("FactorSpec", ("derivative_order", "labels", "variance", "antisym_pairs"))
):
    """One tensor factor: derivative slots, per-slot labels and variances,
    and the antisymmetric slot pairs its tensor must declare."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.labels)


class InvariantSpec(namedtuple("InvariantSpec", ("factors", "label_names", "free_labels"))):
    """The factors, the label names by id, in order of first appearance, and
    the names marked free (each appears exactly once)."""

    __slots__ = ()

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
        if base != "R":
            raise SpecError("unknown base tensor %r" % base)
        head, _, deriv = body.partition(";")
        base_slots = [s for s in head.split(",") if s.strip()]
        deriv_slots = [s for s in deriv.split(",") if s.strip()]
        if len(base_slots) != 4:
            raise SpecError("R takes 4 indices, got %d" % len(base_slots))
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
                derivative_order=len(deriv_slots),
                labels=tuple(labels),
                variance=tuple(variance),
                antisym_pairs=RIEMANN_PAIRS,
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


def _aligned_pairs(spec: InvariantSpec, select) -> frozenset:
    """Label pairs that sit, in the same order, on at least two of the slot
    pairs ``select(factor)`` picks over all factors, neither label free."""
    seen = Counter((f.labels[i], f.labels[j]) for f in spec.factors for i, j in select(f))
    return frozenset(p for p, n in seen.items() if n > 1 and spec.free_labels.isdisjoint(p))


def detect_abbreviable_pairs(spec: InvariantSpec):
    """Label pairs whose summation can be restricted to ordered values.

    A pair abbreviates when two factors carry the same two labels, in the
    same order, on adjacent antisymmetric slot pairs whose two slots share a
    variance in each factor (R^a_b is not antisymmetric); each abbreviated
    pair doubles the multiplier.
    """
    pairs = _aligned_pairs(spec, lambda f: same_variance(f.antisym_pairs, f.variance))
    return pairs, 2 ** len(pairs)


def symmetric_derivative_pairs(spec: InvariantSpec):
    """Label pairs sitting on aligned second-derivative slots in two factors;
    counted as symmetric index pairs in the worst-case product estimate."""
    return _aligned_pairs(
        spec, lambda f: [(f.rank - 2, f.rank - 1)] if f.derivative_order == 2 else []
    )


class ContractionPlan(
    namedtuple("ContractionPlan", ("spec", "tensors", "sum_index_array", "multiplier"))
):
    """An enumerated contraction: the spec, the factor tensors (checked
    against it) the assignments were enumerated from, the surviving label
    assignments in cycling order and the abbreviation multiplier.  Built by
    ``enumerate_indices``; every sum of its products reads its tensors."""

    __slots__ = ()

    @property
    def product_count(self) -> int:
        return len(self.sum_index_array)


def _check_tensors(spec: InvariantSpec, tensors) -> int:
    """The dimension the tensors share, once each is found to match its
    factor: its variances (one per slot, so its rank too), its antisymmetric
    pairs, and the first tensor's dimension."""
    if not tensors or len(tensors) != len(spec.factors):
        raise PlanError(
            "spec has %d factors but %d tensors given" % (len(spec.factors), len(tensors))
        )
    dim = tensors[0].dim
    for i, (f, t) in enumerate(zip(spec.factors, tensors)):
        want = ("".join(f.variance), sorted(f.antisym_pairs), dim)
        have = ("".join(t.variance), sorted(t.antisym_pairs), t.dim)
        if have != want:
            raise PlanError(
                "factor %d needs (variance, antisymmetric pairs, dimension) %s; its tensor has %s"
                % (i, want, have)
            )
    return dim


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


def enumerate_indices(spec: InvariantSpec, tensors) -> ContractionPlan:
    """Join the factors' nonzero stores into the assignments whose
    components all exist, abbreviated pairs strictly increasing, in
    odometer order (first label fastest).  The labels range over the
    tensors' shared dimension; the plan keeps the tensors."""
    dim = _check_tensors(spec, tensors)
    abbreviated, multiplier = detect_abbreviable_pairs(spec)
    entries = _join(spec, tensors, dim, abbreviated)
    return ContractionPlan(spec, tuple(tensors), tuple(entries), multiplier)


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


def keyed_products(plan: ContractionPlan, entries, coefficient=1):
    """``(key, factors, coefficient)`` for each of the plan's ``entries`` in
    turn, the form ``expr.sum_by_key`` sums: the key holds the free labels'
    values in label order (``()`` when no label is free), the factors are
    the entry's component of each of the plan's tensors."""
    spec = plan.spec
    free = [i for i, name in enumerate(spec.label_names) if name in spec.free_labels]
    lookups = list(zip(spec.factor_label_ids(), [t.components for t in plan.tensors]))
    for e in entries:
        key = tuple(e[i] for i in free)
        yield key, [store[tuple(e[i] for i in ids)] for ids, store in lookups], coefficient


def contract_free(spec: InvariantSpec, tensors) -> TensorField:
    """Sum the products of ``enumerate_indices``'s assignments per value of
    the free labels, giving a field over the free slots (rank 0 when no
    label is free): ``keyed_products``, with the abbreviation multiplier as
    each product's coefficient, summed by ``expr.sum_by_key``; components
    come out in odometer order."""
    plan = enumerate_indices(spec, tensors)
    env = tensors[0].env
    sums = sum_by_key(env, keyed_products(plan, plan.sum_index_array, plan.multiplier))
    # Free labels sit on exactly one slot each.
    slot_variance = {n: v for f in spec.factors for n, v in zip(f.labels, f.variance)}
    variance = tuple(slot_variance[n] for n in spec.label_names if n in spec.free_labels)
    # TensorField drops components that cancel to zero.
    components = {key: sums[key] for key in sorted(sums, key=lambda k: k[::-1])}
    return TensorField(env, tensors[0].dim, variance, components)
