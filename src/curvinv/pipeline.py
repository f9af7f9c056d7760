"""End-to-end drivers: build the factor tensors an invariant needs, run
the parcel pool, and assemble reports.

Each metric's lowered Riemann tensor, covariant derivatives and raised
fields are memoised in one place, ``_field``, keyed by (derivative order,
raised slots), so a field shared between factors, or between runs on one
metric, is built once and its raising counted once per run.  The
connection they share is the one the metric keeps (``christoffel``).
The product statistic P is the enumerated product count plus the nonzero
multiplications of the literal raisings.  Raising computes only part of
those products and fills the rest by antisymmetry, so their number is
worked out from the input: one per stored component and nonzero entry of
the inverse-metric row its raised index selects.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Optional

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
    the slots ``raised`` raised in that order, memoised per metric: each
    field is built once from the one below it."""
    fields = _base_fields.setdefault(metric, {})
    key = (order, raised)
    if key not in fields:
        if raised:
            below = _field(metric, order, raised[:-1])
            fields[key] = raise_index(below, raised[-1], metric.inverse())
        elif order:
            below = _field(metric, order - 1)
            fields[key] = covariant_derivative(below, christoffel(metric))
        else:
            fields[key] = riemann_lowered(metric)
    return fields[key]


def build_factor_tensors(metric: Metric, spec: InvariantSpec):
    """One tensor per factor, raised to the factor's variance pattern.

    Returns (tensors, raise_mults) where raise_mults counts the nonzero
    scalar multiplications of the literal raisings, whether their products
    were computed or filled by antisymmetry, once per distinct raising the
    spec needs.  Fields are memoised per metric, so a later call on the
    same metric reuses them and reports the same count.
    """
    tensors = []
    below = {}  # raised field's key -> (field it is raised from, slot)
    for f in spec.factors:
        order = f.derivative_order
        raised = tuple(s for s, v in enumerate(f.variance) if v == UPPER)
        for i, slot in enumerate(raised):
            below[(order, raised[: i + 1])] = (_field(metric, order, raised[:i]), slot)
        tensors.append(_field(metric, order, raised))
    row_nnz = Counter(a for a, _ in metric.inverse().components)
    raise_mults = sum(
        row_nnz[key[slot]] for field, slot in below.values() for key in field.components
    )
    return tensors, raise_mults


def run_invariant(
    metric: Metric,
    spec_text: str,
    cfg: Optional[RunConfig] = None,
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
