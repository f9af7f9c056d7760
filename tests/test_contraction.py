import itertools

import pytest
from hypothesis import given, settings, strategies as st

from curvinv.cli import PRESETS
from curvinv.contraction import (
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
from curvinv.expr import SymbolEnv
from curvinv.metrics import flat, kerr, sphere_metric
from curvinv.parallel import RunConfig, execute
from curvinv.pipeline import build_factor_tensors
from curvinv.tensor import TensorField, raise_index, riemann_lowered, same_variance

from oracles import brute_force_sum, dense_contract_free, dense_enumerate, evaluate_product

KRETSCHMANN = "R(+a,+b,+c,+d) R(-a,-b,-c,-d)"
I_B = "R(+a,+b,+c,+d) R(+e,+f,-a,-b) R(-c,-d,-e,-f)"
I_C = "R(+a,+b,+c,+d;+e) R(-a,-b,-c,-d;-e)"
I_1 = (
    "R(+a,+b,+c,+d;+e,+f) R(-a,-g,-c,-h;-e,-f) "
    "R(+i,+g,+j,+h;+k,+l) R(-i,-b,-j,-d;-k,-l)"
)
I_2 = "R(+a,+b,+c,+d) R(-a,-e,-f,-g) R(+e,+f,-b,-h) R(+g,+h,-c,-d)"
# The Kretschmann scalar with the first slot pair of each factor mixed.
MIXED_KRETSCHMANN = "R(+a,-b,+c,+d) R(-a,+b,-c,-d)"


class TestParseSpec:
    def test_kretschmann(self):
        spec = parse_spec(KRETSCHMANN)
        assert len(spec.factors) == 2
        assert spec.label_count == 4
        assert spec.factors[0].variance == ("u",) * 4
        assert spec.factors[1].variance == ("l",) * 4
        assert not spec.free_labels

    def test_i2_label_arrays(self):
        spec = parse_spec(I_2)
        ids = spec.factor_label_ids()
        assert ids[0] == (0, 1, 2, 3)
        assert ids[1] == (0, 4, 5, 6)
        assert ids[2] == (4, 5, 1, 7)
        assert ids[3] == (6, 7, 2, 3)

    def test_derivative_slots(self):
        spec = parse_spec(I_C)
        f = spec.factors[0]
        assert f.derivative_order == 1
        assert f.rank == 5
        assert f.antisym_pairs == frozenset({(0, 1), (2, 3)})

    def test_second_derivatives(self):
        spec = parse_spec(I_1)
        assert all(f.derivative_order == 2 for f in spec.factors)
        assert spec.label_count == 12

    def test_free_labels(self):
        spec = parse_spec("R(+a,-*b,-a,-*d)")
        assert spec.free_labels == {"b", "d"}

    @pytest.mark.parametrize(
        "text",
        [
            "R(+a,+b,+c,+d) R(-a,-b,-c,-e)",  # d and e appear once
            "R(+a,+a,+a,+b) R(-a,-b,-c,-c)",  # a appears three times
            "R(+a,+b,+c) R(-a,-b,-c)",  # rank mismatch
            "Q(+a,+b,+c,+d) Q(-a,-b,-c,-d)",  # unknown base
            "R(+a,+b,+c,+d;+e,+f,+g) R(-a,-b,-c,-d;-e,-f,-g)",  # 3 derivatives
            "",
            "R(+*a,+b,+c,+d) R(-a,-b,-c,-d)",  # free label appearing twice
            "R(+a,+b,+c,+d) R(+a,+b,+c,+d)",  # contracted labels upper twice
            "R(+a,-b,+a,-b)",  # a upper twice, b lower twice
            "R(+a,b,+c,+d) R(-a,-b,-c,-d)",  # slot without a variance
            "R(+a,+b,+c,+d) R[-a,-b,-c,-d]",  # factor without parentheses
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(SpecError):
            parse_spec(text)


class TestAbbreviation:
    def test_i2_single_pair(self):
        pairs, multiplier = detect_abbreviable_pairs(parse_spec(I_2))
        assert pairs == frozenset({("c", "d")})
        assert multiplier == 2

    def test_kretschmann_both_pairs(self):
        pairs, multiplier = detect_abbreviable_pairs(parse_spec(KRETSCHMANN))
        assert pairs == frozenset({("a", "b"), ("c", "d")})
        assert multiplier == 4

    def test_mixed_variance_pair_is_not_abbreviated(self):
        # R^a_b is not antisymmetric when the inverse metric is off-diagonal
        pairs, multiplier = detect_abbreviable_pairs(parse_spec(MIXED_KRETSCHMANN))
        assert pairs == frozenset({("c", "d")})
        assert multiplier == 2

    def test_ricci_like_has_none(self):
        # contraction across non-adjacent slots: nothing abbreviates
        spec = parse_spec("R(+a,+b,-a,-d) R(-b,+c,+d,-c)")
        pairs, multiplier = detect_abbreviable_pairs(spec)
        assert pairs == frozenset()
        assert multiplier == 1

    def test_i1_has_none(self):
        pairs, multiplier = detect_abbreviable_pairs(parse_spec(I_1))
        assert pairs == frozenset()
        assert multiplier == 1

    def test_i_b_three_pairs(self):
        pairs, multiplier = detect_abbreviable_pairs(parse_spec(I_B))
        assert pairs == frozenset({("a", "b"), ("c", "d"), ("e", "f")})
        assert multiplier == 8


class TestEnumerate:
    def test_flat_is_empty(self):
        spec = parse_spec(KRETSCHMANN)
        g = flat(5)
        tensors, _ = build_factor_tensors(g, spec)
        plan = enumerate_indices(spec, tensors)
        assert plan.sum_index_array == ()
        assert plan.product_count == 0

    def test_two_sphere_single_entry(self, s2):
        spec = parse_spec(KRETSCHMANN)
        tensors, _ = build_factor_tensors(s2, spec)
        plan = enumerate_indices(spec, tensors)
        assert plan.multiplier == 4
        assert plan.sum_index_array == ((0, 1, 0, 1),)

    def test_bounded_by_worst_case(self, s3, kerr4):
        # The Kerr row is the Kretschmann scalar with two raised slots per
        # factor: the same abbreviated pairs and bound (36) as KRETSCHMANN,
        # at half the raising multiplications.
        rows = ((s3, KRETSCHMANN), (s3, I_B), (kerr4, "R(+a,+b,-c,-d) R(+c,+d,-a,-b)"))
        for g, text in rows:
            spec = parse_spec(text)
            tensors, _ = build_factor_tensors(g, spec)
            plan = enumerate_indices(spec, tensors)
            assert plan.product_count <= worst_case_product_count(spec, g.dim)
            assert plan.sum_index_array == dense_enumerate(spec, tensors, g.dim)

    def test_i1_on_flat_is_empty(self, deadline):
        # 4**12 assignments and no stored component: the join stops at once
        spec = parse_spec(PRESETS["I_1"])
        with deadline(5):
            tensors, _ = build_factor_tensors(flat(4), spec)
            plan = enumerate_indices(spec, tensors)
        assert plan.sum_index_array == ()
        assert plan.product_count == 0

    def test_cycling_order_deterministic(self, s3):
        spec = parse_spec(KRETSCHMANN)
        tensors, _ = build_factor_tensors(s3, spec)
        first = enumerate_indices(spec, tensors)
        second = enumerate_indices(spec, tensors)
        assert first.sum_index_array == second.sum_index_array
        # cycling increments the first label fastest
        flat_order = [sum(e[i] * 3 ** i for i in range(4)) for e in first.sum_index_array]
        assert flat_order == sorted(flat_order)

    def test_completeness_without_abbreviation(self, s2):
        # with no abbreviable pairs every surviving assignment is exactly a
        # nonzero-component assignment
        spec = parse_spec("R(+a,+b,-a,-d) R(-b,+c,+d,-c)")
        tensors, _ = build_factor_tensors(s2, spec)
        plan = enumerate_indices(spec, tensors)
        ids = spec.factor_label_ids()
        for entry in plan.sum_index_array:
            for f_ids, t in zip(ids, tensors):
                assert tuple(entry[i] for i in f_ids) in t.components

    def test_mismatched_tensors_rejected(self, s2, s3):
        spec = parse_spec(KRETSCHMANN)
        tensors, _ = build_factor_tensors(s2, spec)
        tensors3, _ = build_factor_tensors(s3, spec)
        with pytest.raises(PlanError):
            enumerate_indices(spec, tensors[:1])
        with pytest.raises(PlanError, match=r"\('uuuu', .*; its tensor has \('llll', "):
            enumerate_indices(spec, [tensors[1], tensors[0]])
        with pytest.raises(PlanError, match=r"2\); its tensor has \(.*, 3\)"):
            enumerate_indices(spec, [tensors[0], tensors3[1]])

    def test_undeclared_antisymmetry_rejected(self):
        # All-ones rank-4 fields on D=2 declare no antisymmetry.  Summing
        # only a < b and c < d with multiplier 4 would give 4, not the full
        # sum 16, so both sums must refuse them.
        spec = parse_spec(KRETSCHMANN)
        ones = dict.fromkeys(itertools.product(range(2), repeat=4), JOIN_ENV.one())
        tensors = [TensorField(JOIN_ENV, 2, f.variance, ones) for f in spec.factors]
        assert brute_force_sum(spec, tensors, 2) == JOIN_ENV.integer(16)
        declared = r"\[\(0, 1\), \(2, 3\)\], 2\); its tensor has \('uuuu', \[\], 2\)"
        with pytest.raises(PlanError, match=declared):
            enumerate_indices(spec, tensors)
        with pytest.raises(PlanError):
            contract_free(spec, tensors)


RANK_ZERO = FactorSpec(
    derivative_order=0, labels=(), variance=(), antisym_pairs=frozenset()
)
JOIN_ENV = SymbolEnv(coordinates=("x",))


def _with_scalar(text):
    spec = parse_spec(text)
    return InvariantSpec(
        factors=spec.factors + (RANK_ZERO,),
        label_names=spec.label_names,
        free_labels=spec.free_labels,
    )


def _with_unused_label(text):
    # only a hand-built spec can name a label that no factor carries
    spec = parse_spec(text)
    return InvariantSpec(
        factors=spec.factors,
        label_names=spec.label_names + ("z",),
        free_labels=spec.free_labels,
    )


JOIN_SPECS = {
    "I_a": parse_spec(PRESETS["I_a"]),
    "I_b": parse_spec(PRESETS["I_b"]),
    "I_c": parse_spec(PRESETS["I_c"]),
    "I_2": parse_spec(PRESETS["I_2"]),
    "repeated_in_factor": parse_spec("R(+a,+b,-a,-d) R(-b,+c,+d,-c)"),
    "ricci_scalar": parse_spec("R(+a,+b,-a,-b)"),
    "rank_zero": _with_scalar(PRESETS["I_a"]),
    "unused_label": _with_unused_label(PRESETS["I_a"]),
    "free_ricci": parse_spec("R(+a,-*b,-a,-*d)"),
    "free_two_factors": parse_spec("R(+a,+b,-*c,-d) R(-a,-b,+*e,+d)"),
    "free_abbreviated": parse_spec("R(+a,+b,+c,+d) R(-a,-b,-c,-d;-*e)"),
    "free_rank_zero": _with_scalar("R(+*a,+b,-b,-*d)"),
}
FREE = ["free_ricci", "free_two_factors", "free_abbreviated", "free_rank_zero", "I_b"]


@st.composite
def sparse_tensors(draw, spec):
    """Random nonzero patterns, D <= 3, small nonzero integer components
    (so sums over free labels can cancel), antisymmetric on each factor's
    oriented pairs: each drawn key is sorted on those pairs, dropped if it
    has equal indices on one, and the rest are mirrored and negated."""
    dim = draw(st.integers(1, 3))
    tensors = []
    for f in spec.factors:
        pairs = same_variance(f.antisym_pairs, f.variance)
        keys = st.tuples(*[st.integers(0, dim - 1)] * f.rank)
        values = draw(st.dictionaries(keys, st.sampled_from((-2, -1, 1, 3)), max_size=40))
        components = {}
        for k, v in values.items():
            for p, q in pairs:
                k = k[:p] + tuple(sorted(k[p : q + 1])) + k[q + 1 :]
            if all(k[p] < k[q] for p, q in pairs):
                components[k] = JOIN_ENV.integer(v)
        for p, q in pairs:
            for k, v in list(components.items()):
                components[k[:p] + (k[q], k[p]) + k[q + 1 :]] = -v
        tensors.append(TensorField(JOIN_ENV, dim, f.variance, components, f.antisym_pairs))
    return dim, tensors


class TestJoinMatchesDense:
    @pytest.mark.parametrize("name", JOIN_SPECS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_enumerate(self, name, data):
        spec = JOIN_SPECS[name]
        dim, tensors = data.draw(sparse_tensors(spec))
        plan = enumerate_indices(spec, tensors)
        assert plan.sum_index_array == dense_enumerate(spec, tensors, dim)

    @pytest.mark.parametrize("name", FREE)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_contract_free(self, name, data):
        spec = JOIN_SPECS[name]
        dim, tensors = data.draw(sparse_tensors(spec))
        field = contract_free(spec, tensors)
        assert field.components == dense_contract_free(spec, tensors, dim)

    @pytest.mark.parametrize("name", JOIN_SPECS)
    def test_all_stores_empty(self, name):
        spec = JOIN_SPECS[name]
        tensors = [
            TensorField(JOIN_ENV, 3, f.variance, {}, f.antisym_pairs) for f in spec.factors
        ]
        assert enumerate_indices(spec, tensors).sum_index_array == ()
        assert dense_enumerate(spec, tensors, 3) == ()
        assert contract_free(spec, tensors).nnz() == 0


class TestEvaluateProduct:
    def test_two_sphere_entry(self, s2):
        spec = parse_spec(KRETSCHMANN)
        tensors, _ = build_factor_tensors(s2, spec)
        plan = enumerate_indices(spec, tensors)
        value = evaluate_product(spec, plan.sum_index_array[0], tensors)
        assert value == s2.env.one()

    def test_rank_zero_edge(self, s2):
        env = s2.env
        factor = FactorSpec(
            derivative_order=0, labels=(), variance=(), antisym_pairs=frozenset()
        )
        spec = InvariantSpec(factors=(factor,), label_names=(), free_labels=frozenset())
        scalar = TensorField(env, 2, (), {(): env.integer(7)})
        plan = enumerate_indices(spec, [scalar])
        assert plan.sum_index_array == ((),)
        assert evaluate_product(spec, (), [scalar]) == env.integer(7)

    def test_deterministic(self, s2):
        spec = parse_spec(KRETSCHMANN)
        tensors, _ = build_factor_tensors(s2, spec)
        plan = enumerate_indices(spec, tensors)
        entry = plan.sum_index_array[0]
        assert evaluate_product(spec, entry, tensors) == evaluate_product(
            spec, entry, tensors
        )


class TestWorstCase:
    def test_second_derivative_quartic(self):
        spec = parse_spec(I_1)
        assert worst_case_product_count(spec, 4) == 6_553_600
        # closed form D**10 (D+1)**2 / 4
        for dim in (4, 5, 6):
            assert worst_case_product_count(spec, dim) == dim ** 10 * (dim + 1) ** 2 // 4

    def test_riemann_quartic(self):
        spec = parse_spec(I_2)
        assert worst_case_product_count(spec, 4) == 24_576
        for dim in (4, 7):
            assert worst_case_product_count(spec, dim) == dim ** 7 * (dim - 1) // 2

    def test_kretschmann_with_both_pairs(self):
        spec = parse_spec(KRETSCHMANN)
        assert worst_case_product_count(spec, 4) == 36
        assert worst_case_product_count(spec, 2) == 1

    def test_first_derivative(self):
        spec = parse_spec(I_C)
        for dim in (2, 4):
            assert worst_case_product_count(spec, dim) == (
                (dim * (dim - 1) // 2) ** 2 * dim
            )


class TestCounts:
    def test_independent_component_count(self):
        assert independent_component_count(2) == 1
        assert independent_component_count(4) == 20
        assert independent_component_count(11) == 1210

    def test_independent_component_count_rejects(self):
        with pytest.raises(ValueError):
            independent_component_count(1)


class TestAbbreviationSoundness:
    @pytest.mark.parametrize(
        "metric,text",
        [(2, KRETSCHMANN), (2, I_B), (3, KRETSCHMANN), (3, I_B), ("offdiag3d", MIXED_KRETSCHMANN)],
    )
    def test_multiplier_times_abbreviated_equals_full(self, request, metric, text):
        # an int is a sphere's dimension, a string names a metric fixture
        g = request.getfixturevalue(metric) if isinstance(metric, str) else sphere_metric(metric)
        spec = parse_spec(text)
        tensors, _ = build_factor_tensors(g, spec)
        plan = enumerate_indices(spec, tensors)
        abbreviated = g.env.zero()
        for entry in plan.sum_index_array:
            abbreviated = abbreviated + evaluate_product(spec, entry, tensors)
        full = brute_force_sum(spec, tensors, g.dim)
        assert (abbreviated * plan.multiplier - full).is_zero


class TestContractFree:
    @pytest.mark.parametrize(
        "builder,dim,scale",
        [
            (sphere_metric, 2, 1),
            (sphere_metric, 3, 2),
            (sphere_metric, 4, 3),
            (kerr, 4, 0),
            (kerr, 5, 0),
        ],
        ids=["sphere2", "sphere3", "sphere4", "kerr4", "kerr5"],
    )
    def test_ricci_closed_form(self, builder, dim, scale):
        # R_ab = (n - 1) g_ab on the unit n-sphere; Kerr at symbolic a is
        # vacuum, so its Ricci tensor vanishes over the rho2 and Delta
        # denominators of its Riemann tensor
        g = builder(dim)
        spec = parse_spec("R(+a,-*b,-a,-*d)")
        mixed = raise_index(riemann_lowered(g), 0, g.inverse())
        ricci = contract_free(spec, [mixed])
        assert ricci.rank == 2
        assert ricci.variance == ("l", "l")
        expected = {key: value * scale for key, value in g.components.items() if scale}
        assert ricci.components == expected

    def test_zero_input_gives_empty_output(self):
        g = flat(3)
        spec = parse_spec("R(+a,-*b,-a,-*d)")
        R = riemann_lowered(g)
        mixed = raise_index(R, 0, g.inverse())
        assert contract_free(spec, [mixed]).nnz() == 0

    @pytest.mark.parametrize(
        "metric,text",
        [
            (lambda: sphere_metric(2), KRETSCHMANN),
            (lambda: sphere_metric(3), I_B),
            (lambda: kerr(4).substitute("a", 1), I_B),
        ],
        ids=["sphere2_Ia", "sphere3_Ib", "kerr4_Ib_a1"],
    )
    def test_scalar_spec_matches_scalar_pipeline(self, metric, text):
        # contract_free and execute's parcels sum one product stream
        g = metric()
        spec = parse_spec(text)
        tensors, _ = build_factor_tensors(g, spec)
        plan = enumerate_indices(spec, tensors)
        total = g.env.zero()
        for entry in plan.sum_index_array:
            total = total + evaluate_product(spec, entry, tensors)
        scalar_field = contract_free(spec, tensors)
        assert scalar_field.rank == 0
        assert scalar_field.component(()) == total * plan.multiplier
        for workers in (1, 2):
            report = execute(plan, RunConfig(workers=workers))
            assert str(scalar_field.component(())) == str(report.invariant)
