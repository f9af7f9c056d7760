"""Exact symbolic curvature invariants with parcel-parallel summation."""

from .contraction import (
    ContractionPlan,
    FactorSpec,
    InvariantSpec,
    PlanError,
    SpecError,
    contract_free,
    detect_abbreviable_pairs,
    enumerate_indices,
    independent_component_count,
    pair_exchange_reduction_factor,
    parse_spec,
    worst_case_product_count,
)
from .expr import (
    DivisionByZeroExpression,
    EvaluationError,
    Expr,
    SymbolEnv,
    SymbolicError,
    UnknownSymbolError,
    balanced_sum,
    normalize,
)
from .metrics import KerrParams, flat, kerr, metric_by_name, sphere_metric
from .parallel import (
    Parcel,
    RunConfig,
    RunReport,
    WorkerFailure,
    WorkerStats,
    execute,
    partition,
)
from .pipeline import build_factor_tensors, run_invariant
from .tensor import (
    ChristoffelField,
    Metric,
    OpCounter,
    SingularMetricError,
    TensorError,
    TensorField,
    christoffel,
    covariant_derivative,
    inverse_metric,
    lower_index,
    raise_index,
    riemann_independent_nonzero_count,
    riemann_lowered,
)

__version__ = "0.1.0"
