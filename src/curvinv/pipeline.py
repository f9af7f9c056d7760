"""End-to-end drivers: build the factor tensors an invariant needs, run
the parcel pool, and assemble reports.

Each metric's lowered Riemann tensor, covariant derivatives and raised
fields are memoised in one place, ``_field``, keyed by (derivative order,
raised slots), so a field shared between factors, or between runs on one
metric, is built once and its raising counted once per run.  A raised
field is raised in one ``raise_index`` call, all its slots in one sum,
from the longest prefix of its raised slots already built, and
``build_factor_tensors`` builds the factors' fields shortest raised set
first: S^6 I_2 raises (0, 1) from R, then (2, 3) of that.  The connection
they share is the one the metric keeps (``christoffel``).

The product statistic P is the enumerated product count plus the nonzero
multiplications of the literal raisings, one slot at a time, whether a
raising formed each product, filled its component by a symmetry or
skipped it.  The count reads the keys of each literal intermediate that
is built.  For one that is not, where every index it raises has a
one-entry inverse-metric row (any index of a diagonal metric), the keys
of the field below stand in (``_count_keys``).  Any other row, such as
Kerr's t and phi rows with two entries, has the intermediate built
exactly, and the next slot raised from it.
"""

from __future__ import annotations

import weakref
from collections import Counter

from .contraction import (
    InvariantSpec,
    enumerate_indices,
    parse_spec,
)
from .metrics import metric_by_name
from .parallel import RunConfig, RunReport, execute
from .tensor import (
    Metric,
    UPPER,
    christoffel,
    covariant_derivative,
    raise_index,
    riemann_lowered,
)


# Per metric instance (metrics are immutable): the Riemann fields keyed by
# (derivative order, raised slots).
_base_fields = weakref.WeakKeyDictionary()


def _field(metric: Metric, order: int, raised: tuple = ()):
    """The lowered Riemann tensor's ``order``-th covariant derivative with
    the slots ``raised`` raised, memoised per metric: a raised field is
    raised in one ``raise_index`` call from the longest prefix of
    ``raised`` already memoised."""
    fields = _base_fields.setdefault(metric, {})
    key = (order, raised)
    if key not in fields:
        if raised:
            start = len(raised) - 1
            while start and (order, raised[:start]) not in fields:
                start -= 1
            below = _field(metric, order, raised[:start])
            fields[key] = raise_index(below, raised[start:], metric.inverse())
        elif order:
            below = _field(metric, order - 1)
            fields[key] = covariant_derivative(below, christoffel(metric))
        else:
            fields[key] = riemann_lowered(metric)
    return fields[key]


def build_factor_tensors(metric: Metric, spec: InvariantSpec):
    """One tensor per factor, raised to the factor's variance pattern.

    Returns (tensors, raise_mults) where raise_mults counts the nonzero
    scalar multiplications of the literal raisings, one slot at a time in
    ascending order, whether their products were computed, filled or never
    formed, once per distinct raising the spec needs.  The factor fields
    are built shortest raised set first, so a longer one is raised from a
    shorter one it extends.  Fields are memoised per metric, so a later
    call on the same metric reuses them and reports the same count.
    """
    factors = [
        (f.derivative_order, tuple(s for s, v in enumerate(f.variance) if v == UPPER))
        for f in spec.factors
    ]
    inverse = metric.inverse().components
    row_nnz = Counter(a for a, _ in inverse)
    # A one-entry row leading to a one-entry row: raising index a gives b alone.
    partner = {a: b for a, b in inverse if row_nnz[a] == row_nnz[b] == 1}
    keys = {}
    steps = {}  # raised field's key -> (key of the field it is raised from, slot)
    for order, raised in sorted(dict.fromkeys(factors), key=lambda f: len(f[1])):
        for i, slot in enumerate(raised):
            below = (order, raised[:i])
            _count_keys(metric, below, partner, keys)
            steps[(order, raised[: i + 1])] = below, slot
        _field(metric, order, raised)
    raise_mults = sum(
        row_nnz[key[slot]] for below, slot in steps.values() for key in keys[below]
    )
    return [_field(metric, *f) for f in factors], raise_mults


def _count_keys(metric: Metric, field_key: tuple, partner: dict, keys: dict):
    """Keys that stand for those the field ``field_key`` of the literal
    raising chain stores, memoised in ``keys``; the raising count reads
    them only at slots not yet raised.  A built field gives its own keys.
    Else, when every index that its last raised slot holds in the field
    below has a ``partner``, each of its components is one product of
    nonzeros, g^ke t[..e..] with k the partner of e, so it stores one key
    per key below, equal but at that slot, and the keys below serve.  (None
    has equal indices k, k on the pair the raising orients: below, that
    would be t^k_e, which is g^ke times a component with indices e, e on
    that pair, so zero and not stored.)  Else the field is built."""
    if field_key not in keys:
        order, raised = field_key
        if raised and field_key not in _base_fields.get(metric, ()):
            below = _count_keys(metric, (order, raised[:-1]), partner, keys)
            if all(key[raised[-1]] in partner for key in below):
                keys[field_key] = below
                return below
        keys[field_key] = _field(metric, order, raised).components.keys()
    return keys[field_key]


def run_invariant(
    metric: Metric,
    spec_text: str,
    cfg: RunConfig | None = None,
    *,
    metric_name: str = "",
) -> RunReport:
    """Full pipeline: Riemann (+derivatives), raising, enumeration, and the
    parcel-parallel sum.  A spec with free labels has no scalar value and
    is rejected before anything is built."""
    spec = parse_spec(spec_text)
    if spec.free_labels:
        # checked again by execute; here it spares building the tensors
        raise ValueError("run_invariant sums scalars; use contract_free for free labels")
    cfg = cfg or RunConfig()
    tensors, raise_mults = build_factor_tensors(metric, spec)
    plan = enumerate_indices(spec, tensors)
    return execute(
        plan, cfg, raise_mults=raise_mults, metric_name=metric_name, spec_text=spec_text
    )


def metric_with_substitutions(name: str, dim: int, substitutions) -> Metric:
    """The named metric with each (parameter, exact rational) pair fixed in
    turn by ``Metric.substitute``, which rejects a parameter fixed twice."""
    metric = metric_by_name(name, dim)
    for sym, value in substitutions:
        metric = metric.substitute(sym, value)
    return metric
