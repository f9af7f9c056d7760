"""End-to-end drivers: build the factor tensors an invariant needs, run
the parcel pool, and assemble reports.

Raised tensors are cached per metric by (derivative order, raised slots),
so a slot raising shared between factors, or between runs on one metric,
is performed once and counted once per run.  The product statistic P is
the enumerated product count plus the nonzero multiplications of the
literal raisings.  Raising computes only part of those products and fills
the rest by antisymmetry, so their number is worked out from the input:
one per stored component and nonzero entry of the inverse-metric row its
raised index selects.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

from .contraction import (
    InvariantSpec,
    enumerate_indices,
    parse_spec,
)
from .metrics import metric_by_name
from .parallel import RunConfig, RunReport, execute
from .tensor import (
    Metric,
    TensorError,
    UPPER,
    christoffel,
    covariant_derivative,
    raise_index,
    riemann_lowered,
)


# Per metric instance (metrics are immutable): the connection, the lowered
# Riemann field followed by its covariant derivatives, and the raised
# fields keyed by (derivative order, raised slots).
_base_fields = weakref.WeakKeyDictionary()


def _metric_cache(metric: Metric):
    entry = _base_fields.get(metric)
    if entry is None:
        # One connection serves Riemann and every covariant derivative.
        gamma = christoffel(metric)
        entry = _base_fields[metric] = (gamma, [riemann_lowered(metric, gamma)], {})
    return entry


def _lowered_field(metric: Metric, order: int):
    gamma, fields, _ = _metric_cache(metric)
    while len(fields) <= order:
        fields.append(covariant_derivative(fields[-1], gamma))
    return fields[order]


def build_factor_tensors(metric: Metric, spec: InvariantSpec):
    """One tensor per factor, raised to the factor's variance pattern.

    Returns (tensors, raise_mults) where raise_mults counts the nonzero
    scalar multiplications of the literal raisings, whether their products
    were computed or filled by antisymmetry, once per distinct raising the
    spec needs.  Raised fields are cached per metric, so a later call on the
    same metric reuses them and reports the same count.
    """
    base = {
        o: _lowered_field(metric, o) for o in {f.derivative_order for f in spec.factors}
    }
    ginv = metric.inverse()
    row_nnz = Counter(a for a, _ in ginv.components)
    _, _, raised_cache = _metric_cache(metric)
    used = {}
    tensors = []
    for f in spec.factors:
        current = base[f.derivative_order]
        raised = ()
        for slot, var in enumerate(f.variance):
            if var != UPPER:
                continue
            raised = raised + (slot,)
            key = (f.derivative_order, raised)
            used[key] = sum(row_nnz[k[slot]] for k in current.components)
            if key not in raised_cache:
                raised_cache[key] = raise_index(current, slot, ginv)
            current = raised_cache[key]
        tensors.append(current)
    return tensors, sum(used.values())


def run_invariant(
    metric: Metric,
    spec_or_text: Union[str, InvariantSpec],
    cfg: Optional[RunConfig] = None,
    *,
    metric_name: str = "",
) -> RunReport:
    """Full pipeline: Riemann (+derivatives), raising, enumeration, and the
    parcel-parallel sum."""
    if isinstance(spec_or_text, str):
        spec_text = spec_or_text
        spec = parse_spec(spec_or_text)
    else:
        spec = spec_or_text
        spec_text = ""
    if spec.free_labels:
        raise ValueError("run_invariant computes scalars; use contract_free for free indices")
    cfg = cfg or RunConfig()
    tensors, raise_mults = build_factor_tensors(metric, spec)
    plan = enumerate_indices(spec, tensors, metric.dim)
    return execute(
        plan,
        spec,
        tensors,
        cfg,
        raise_mults=raise_mults,
        metric_name=metric_name,
        spec_text=spec_text,
    )


def metric_with_substitutions(name: str, dim: int, substitutions) -> Metric:
    """The named metric with each (parameter, exact rational) pair fixed in
    turn.  A parameter fixed twice is rejected: the second value would
    silently change nothing."""
    metric = metric_by_name(name, dim)
    fixed = set()
    for sym, value in substitutions:
        if sym in fixed:
            raise TensorError("parameter %r is set more than once" % sym)
        fixed.add(sym)
        metric = metric.substitute(sym, value)
    return metric
