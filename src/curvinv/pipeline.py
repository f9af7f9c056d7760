"""End-to-end drivers: build the factor tensors an invariant needs, run
the parcel pool, and assemble reports.

Raised tensors are cached by (derivative order, raised slots) so a slot
raising shared between factors is performed and counted once; the product
statistic P is the enumerated product count plus all nonzero
multiplications spent raising.
"""

from __future__ import annotations

import weakref
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
    OpCounter,
    UPPER,
    christoffel,
    covariant_derivative,
    raise_index,
    riemann_lowered,
)


# Per metric instance (metrics are immutable): the connection, and the
# lowered Riemann field followed by its covariant derivatives.
_base_fields = weakref.WeakKeyDictionary()


def _lowered_field(metric: Metric, order: int):
    entry = _base_fields.get(metric)
    if entry is None:
        # One connection serves Riemann and every covariant derivative.
        gamma = christoffel(metric)
        entry = _base_fields[metric] = (gamma, [riemann_lowered(metric, gamma)])
    gamma, fields = entry
    while len(fields) <= order:
        fields.append(covariant_derivative(fields[-1], gamma))
    return fields[order]


def build_factor_tensors(metric: Metric, spec: InvariantSpec):
    """One tensor per factor, raised to the factor's variance pattern.

    Returns (tensors, raise_mults) where raise_mults counts the nonzero
    scalar multiplications spent on all distinct raisings performed.
    """
    base = {
        o: _lowered_field(metric, o) for o in {f.derivative_order for f in spec.factors}
    }
    ginv = metric.inverse()
    counter = OpCounter()
    cache = {}
    tensors = []
    for f in spec.factors:
        current = base[f.derivative_order]
        raised = ()
        for slot, var in enumerate(f.variance):
            if var != UPPER:
                continue
            raised = raised + (slot,)
            key = (f.derivative_order, raised)
            cached = cache.get(key)
            if cached is None:
                cached = raise_index(current, slot, ginv, counter)
                cache[key] = cached
            current = cached
        tensors.append(current)
    return tensors, counter.mults


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
    metric = metric_by_name(name, dim)
    for sym, value in substitutions:
        metric = metric.substitute(sym, value)
    return metric
