"""Exact symbolic curvature invariants with parcel-parallel summation."""

# poly first: without cached bytecode, compiling it is the import's largest
# allocation, and it peaks lowest before the other modules are loaded
from .poly import HeuristicGCDFailed
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
    parse_spec,
    worst_case_product_count,
)
from .expr import (
    DivisionByZeroExpression,
    Expr,
    SymbolEnv,
    SymbolicError,
    UnknownSymbolError,
)
from .metrics import flat, kerr, metric_by_name, sphere_metric
from .parallel import (
    RunConfig,
    RunReport,
    WorkerFailure,
    WorkerStats,
    execute,
    partition,
)
from .pipeline import build_factor_tensors, run_invariant
from .tensor import (
    Metric,
    SingularMetricError,
    TensorError,
    TensorField,
    christoffel,
    covariant_derivative,
    inverse_metric,
    raise_index,
    riemann_lowered,
)

__version__ = "0.1.0"
