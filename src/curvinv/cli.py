"""Command-line driver: run invariants and report product/term statistics.

Two subcommands share the metric/invariant selection flags:

    curvinv run   --metric kerr --dim 4 --invariant I_a --workers 4 --parcels 4
    curvinv count --metric kerr --dim 4 --invariant I_1 --enumerate

``run`` executes the full pipeline and prints the canonical invariant with
its statistics; ``count`` builds the metric, so it rejects the inputs
``run`` rejects, and prints the analytic worst-case product count and
related figures without evaluating anything (unless --enumerate asks for
the realized assignment count).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .contraction import (
    SpecError,
    detect_abbreviable_pairs,
    enumerate_indices,
    independent_component_count,
    parse_spec,
    worst_case_product_count,
)
from .expr import SymbolicError
from .metrics import METRIC_BUILDERS
from .parallel import RunConfig, WorkerFailure
from .pipeline import build_factor_tensors, metric_with_substitutions, run_invariant
from .tensor import TensorError

PRESETS = {
    "kretschmann": "R(+a,+b,+c,+d) R(-a,-b,-c,-d)",
    "I_a": "R(+a,+b,+c,+d) R(-a,-b,-c,-d)",
    "I_b": "R(+a,+b,+c,+d) R(+e,+f,-a,-b) R(-c,-d,-e,-f)",
    "I_c": "R(+a,+b,+c,+d;+e) R(-a,-b,-c,-d;-e)",
    "I_1": (
        "R(+a,+b,+c,+d;+e,+f) R(-a,-g,-c,-h;-e,-f) "
        "R(+i,+g,+j,+h;+k,+l) R(-i,-b,-j,-d;-k,-l)"
    ),
    "I_2": "R(+a,+b,+c,+d) R(-a,-e,-f,-g) R(+e,+f,-b,-h) R(+g,+h,-c,-d)",
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--metric", required=True, choices=sorted(METRIC_BUILDERS))
    p.add_argument("--dim", required=True, type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--invariant", choices=sorted(PRESETS))
    group.add_argument("--spec", help="invariant in the contraction DSL")
    p.add_argument(
        "--set",
        dest="substitutions",
        action="append",
        default=[],
        metavar="SYM=VALUE",
        help="fix a parameter to an exact rational before differentiating; "
        "each parameter once, and only one the metric depends on",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvinv",
        description="Exact curvature invariants via parcel-parallel contraction sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate an invariant")
    _add_common(run_p)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--parcels", type=int, default=1, help="parcels per worker")

    count_p = sub.add_parser("count", help="product-count analysis only")
    _add_common(count_p)
    count_p.add_argument(
        "--enumerate",
        dest="enumerate_",
        action="store_true",
        help="also build tensors and report the realized assignment count",
    )
    return parser


def _parse_substitutions(pairs):
    out = []
    for text in pairs:
        name, sep, value = text.partition("=")
        if not sep or not name:
            raise SpecError("bad substitution %r; expected SYM=VALUE" % text)
        try:
            out.append((name.strip(), Fraction(value.strip())))
        except (ValueError, ZeroDivisionError):
            raise SpecError("bad rational value in %r" % text) from None
    return out


def _spec_text(args) -> str:
    if args.invariant:
        return PRESETS[args.invariant]
    return args.spec


def _cmd_run(args) -> int:
    metric = metric_with_substitutions(
        args.metric, args.dim, _parse_substitutions(args.substitutions)
    )
    cfg = RunConfig(workers=args.workers, parcels_per_worker=args.parcels)
    report = run_invariant(metric, _spec_text(args), cfg, metric_name=args.metric)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print("invariant: %s" % report.expression)
        print("T: %d" % report.T)
        print("P: %d (products %d + raising %d)"
              % (report.P, report.product_count, report.raise_mults))
        print("multiplier: %d" % report.multiplier)
        print("workers: %d  parcels: %d  wall_ms: %.1f  pool_ms: %.1f"
              % (report.workers, report.parcels, report.wall_ms, report.pool_ms))
        for i, w in enumerate(report.per_worker):
            print("  worker %d: entries=%d wall_ms=%.1f" % (i, w.entries, w.wall_ms))
    return 0


def _cmd_count(args) -> int:
    spec_text = _spec_text(args)
    spec = parse_spec(spec_text)
    # Built even without --enumerate, so count rejects the inputs run does.
    metric = metric_with_substitutions(
        args.metric, args.dim, _parse_substitutions(args.substitutions)
    )
    abbreviated, multiplier = detect_abbreviable_pairs(spec)
    payload = {
        "metric": args.metric,
        "dim": args.dim,
        "spec": spec_text,
        "worst_case_products": worst_case_product_count(spec, args.dim),
        "independent_components": independent_component_count(args.dim),
        "multiplier": multiplier,
        "abbreviated_pairs": sorted(list(p) for p in abbreviated),
    }
    if args.enumerate_:
        tensors, raise_mults = build_factor_tensors(metric, spec)
        plan = enumerate_indices(spec, tensors)
        payload["enumerated_products"] = plan.product_count
        payload["raising_multiplications"] = raise_mults
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("spec: %s" % payload["spec"])
        print("worst-case products: %d" % payload["worst_case_products"])
        print("independent curvature components: %d" % payload["independent_components"])
        print("abbreviation multiplier: %d  pairs: %s"
              % (multiplier, payload["abbreviated_pairs"]))
        if args.enumerate_:
            print("enumerated products: %d" % payload["enumerated_products"])
            print("raising multiplications: %d" % payload["raising_multiplications"])
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_count(args)
    except (SpecError, TensorError, SymbolicError, WorkerFailure, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
