import itertools
import re

import pytest

from curvinv.contraction import parse_spec
from curvinv.expr import Expr, SymbolEnv
from curvinv.metrics import flat
from curvinv.pipeline import build_factor_tensors
from curvinv.tensor import (
    LOWER,
    RIEMANN_PAIRS,
    Metric,
    SingularMetricError,
    TensorError,
    TensorField,
    UPPER,
    _rows,
    christoffel,
    covariant_derivative,
    inverse_metric,
    raise_index,
    riemann_lowered,
)

from oracles import (
    adjugate_inverse,
    dense_christoffel,
    dense_covariant_derivative,
    dense_riemann_lowered,
    field_to_grid,
    full_contract_slot,
    full_covariant_derivative,
    riemann_independent_nonzero_count,
    rows,
)


class TestInverseMetric:
    def test_flat_is_self_inverse(self):
        g = flat(4)
        inv = inverse_metric(g)
        assert inv.component((0, 0)) == g.env.integer(-1)
        for i in range(1, 4):
            assert inv.component((i, i)) == g.env.one()
        assert inv.nnz() == 4

    def test_diagonal_reciprocal(self, quartic2d):
        inv = inverse_metric(quartic2d)
        r = quartic2d.env.symbol("r")
        assert inv.component((1, 1)) == 1 / r ** 4

    def test_kerr_block_against_identity(self, kerr4):
        inv = kerr4.inverse()
        env = kerr4.env
        for a in range(4):
            for c in range(4):
                acc = env.zero()
                for b in range(4):
                    acc = acc + inv.component((a, b)) * kerr4.component((b, c))
                assert acc == (env.one() if a == c else env.zero())

    def test_matches_adjugate_oracle(self, s2, kerr4, null3d):
        for g in (s2, kerr4, null3d):
            oracle = adjugate_inverse(g)
            inv = g.inverse()
            for i in range(g.dim):
                for j in range(g.dim):
                    assert inv.component((i, j)) == oracle[i][j]

    def test_singular_metric_rejected(self):
        env = SymbolEnv(coordinates=("u", "v"))
        x = env.symbol("u")
        g = Metric(env, 2, {(0, 0): x, (0, 1): x, (1, 1): x})
        with pytest.raises(SingularMetricError):
            inverse_metric(g)


class TestChristoffel:
    def test_flat_vanishes(self):
        assert christoffel(flat(5)).nnz() == 0

    def test_unit_sphere_components(self, s2):
        # coordinates (x, chi1) = (cos of the polar angle, azimuthal)
        env = s2.env
        gam = christoffel(s2)
        x = env.symbol("cos(chi2)")
        sin2 = 1 - x ** 2
        assert gam.component((0, 0, 0)) == x / sin2
        assert gam.component((0, 1, 1)) == x * sin2
        assert gam.component((1, 0, 1)) == -x / sin2
        assert gam.component((1, 1, 0)) == -x / sin2
        assert gam.nnz() == 4

    def test_polar_radial_component(self):
        env = SymbolEnv(coordinates=("r", "phi"))
        r = env.symbol("r")
        g = Metric(env, 2, {(0, 0): env.one(), (1, 1): r ** 2})
        gam = christoffel(g)
        assert gam.component((1, 0, 1)) == 1 / r
        assert gam.component((0, 1, 1)) == -r

    def test_matches_dense_oracle(self, s2, quartic2d, s3, offdiag3d, s3_euler, warped3d):
        for g in (s2, quartic2d, s3, offdiag3d, s3_euler, warped3d):
            oracle = dense_christoffel(g)
            gam = christoffel(g)
            for a in range(g.dim):
                for b in range(g.dim):
                    for c in range(g.dim):
                        assert gam.component((a, b, c)) == oracle[a][b][c]

    def test_kept_on_metric(self, s3):
        g = Metric(s3.env, s3.dim, s3.components)  # no connection kept yet
        assert christoffel(g) is christoffel(g)

    def test_lower_symmetry(self, kerr4):
        gam = christoffel(kerr4)
        for (a, b, c) in gam.components:
            assert gam.component((a, b, c)) == gam.component((a, c, b))

    def test_each_metric_derivative_taken_once(self, monkeypatch, warped3d):
        # Christoffel and Riemann read one derivative memo on the metric, so
        # building both takes one Expr.diff per distinct derivative key.
        g = Metric(warped3d.env, warped3d.dim, warped3d.components)  # empty memos
        diff, derivative = Expr.diff, Metric.derivative
        diffs, keys = [], set()

        def counting_diff(self, coordinate):
            diffs.append(coordinate)
            return diff(self, coordinate)

        def recording_derivative(self, a, b, *xs):
            if xs:
                keys.add((min(a, b), max(a, b)) + tuple(sorted(xs)))
            return derivative(self, a, b, *xs)

        monkeypatch.setattr(Expr, "diff", counting_diff)
        monkeypatch.setattr(Metric, "derivative", recording_derivative)
        riemann_lowered(g)
        monkeypatch.undo()
        # A derivative of an identically zero one is zero without a diff.
        taken = [key for key in keys if not g.derivative(*key[:-1]).is_zero]
        assert any(len(key) == 4 for key in taken)
        assert len(diffs) == len(taken)


class TestRiemann:
    def test_flat_empty(self):
        for dim in range(2, 12):
            assert riemann_lowered(flat(dim)).nnz() == 0

    def test_unit_sphere_value(self, s2):
        R = riemann_lowered(s2)
        # g_xx g_phiphi = 1: the unit sphere's area element is dx dphi
        assert R.component((0, 1, 0, 1)) == s2.env.one()
        assert riemann_independent_nonzero_count(R) == 1

    def test_constant_curvature_closed_form(self, s3_euler):
        g = s3_euler
        R = riemann_lowered(g)
        assert R.nnz() > 0
        g_ = g.component
        for a, b, c, d in itertools.product(range(3), repeat=4):
            expected = g_((a, c)) * g_((b, d)) - g_((a, d)) * g_((b, c))
            assert R.component((a, b, c, d)) == expected

    def test_matches_dense_oracle(self, s2, quartic2d, s3, offdiag3d, s3_euler, warped3d):
        for g in (s2, quartic2d, s3, offdiag3d, s3_euler, warped3d):
            oracle = dense_riemann_lowered(g)
            R = riemann_lowered(g)
            for key in itertools.product(range(g.dim), repeat=4):
                assert R.component(key) == oracle[key[0]][key[1]][key[2]][key[3]]

    def test_pair_antisymmetries(self, s3, kerr4_riemann):
        for R in (riemann_lowered(s3), kerr4_riemann):
            for (a, b, c, d), value in R.items():
                assert R.component((b, a, c, d)) == -value
                assert R.component((a, b, d, c)) == -value

    def test_pair_exchange_symmetry(self, s3, kerr4_riemann):
        for R in (riemann_lowered(s3), kerr4_riemann):
            for (a, b, c, d), value in R.items():
                assert R.component((c, d, a, b)) == value

    def test_first_bianchi_identity(self, s3, kerr4_riemann):
        for R in (riemann_lowered(s3), kerr4_riemann):
            for key in itertools.product(range(R.dim), repeat=4):
                a, b, c, d = key
                cyclic = (
                    R.component((a, b, c, d))
                    + R.component((a, c, d, b))
                    + R.component((a, d, b, c))
                )
                assert cyclic.is_zero

    def test_store_honesty(self, kerr4_riemann):
        R = kerr4_riemann
        assert all(not v.is_zero for v in R.components.values())

    def test_independent_count_bound(self, s3, kerr4_riemann):
        for R in (riemann_lowered(s3), kerr4_riemann):
            bound = R.dim ** 2 * (R.dim ** 2 - 1) // 12
            assert riemann_independent_nonzero_count(R) <= bound

    def test_kerr4_has_13_independent_nonzero(self, kerr4_riemann):
        R = kerr4_riemann
        assert riemann_independent_nonzero_count(R) == 13


class TestRaiseLower:
    def test_diagonal_metric_divides(self, quartic2d):
        R = riemann_lowered(quartic2d)
        inv = quartic2d.inverse()
        up = raise_index(R, 0, inv)
        for key, value in R.items():
            expected = value / quartic2d.component((key[0], key[0]))
            assert up.component(key) == expected

    def test_round_trip(self, kerr4, kerr4_riemann):
        R = kerr4_riemann
        inv = kerr4.inverse()
        up = raise_index(R, 2, inv)
        back, _ = full_contract_slot(up, 2, rows(kerr4), LOWER)
        assert back.components == R.components
        assert back.variance == R.variance

    def test_sphere_fully_raised(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        t = R
        for slot in range(4):
            t = raise_index(t, slot, inv)
        assert t.component((0, 1, 0, 1)) == s2.env.one()
        assert t.antisym_pairs == frozenset({(0, 1), (2, 3)})
        assert t.variance == (UPPER,) * 4

    def test_slot_errors(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        with pytest.raises(TensorError):
            raise_index(R, 7, inv)
        up = raise_index(R, 0, inv)
        with pytest.raises(TensorError):
            raise_index(up, 0, inv)

    def test_mixed_pair_metadata(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        half = raise_index(R, 0, inv)
        assert half.antisym_pairs == R.antisym_pairs
        assert half.oriented_pairs == frozenset({(2, 3)})
        full = raise_index(half, 1, inv)
        assert full.antisym_pairs == R.antisym_pairs
        assert full.oriented_pairs == frozenset({(0, 1), (2, 3)})


class TestCovariantDerivative:
    def test_scalar_reduces_to_partial(self, quartic2d):
        env = quartic2d.env
        r = env.symbol("r")
        f = TensorField(env, 2, (), {(): r ** 3 + 1})
        gam = christoffel(quartic2d)
        df = covariant_derivative(f, gam)
        assert df.component((0,)) == 3 * r ** 2
        assert df.component((1,)).is_zero

    def test_metric_compatibility(self, s2, s3, quartic2d, kerr4):
        # a Metric is a TensorField of variance (l, l)
        for g in (s2, s3, quartic2d, kerr4):
            assert covariant_derivative(g, christoffel(g)).nnz() == 0

    def test_sphere_riemann_is_parallel(self, s2):
        R = riemann_lowered(s2)
        assert covariant_derivative(R, christoffel(s2)).nnz() == 0

    def test_matches_dense_oracle(self, quartic2d):
        R = riemann_lowered(quartic2d)
        gam = christoffel(quartic2d)
        dR = covariant_derivative(R, gam)
        assert dR.nnz() > 0
        grid = dense_covariant_derivative(field_to_grid(R, quartic2d.env), quartic2d)
        for key in itertools.product(range(2), repeat=5):
            node = grid
            for i in key:
                node = node[i]
            assert dR.component(key) == node

    def test_second_derivative_matches_dense_oracle(self, quartic2d):
        R = riemann_lowered(quartic2d)
        gam = christoffel(quartic2d)
        ddR = covariant_derivative(covariant_derivative(R, gam), gam)
        assert ddR.rank == 6
        grid = dense_covariant_derivative(
            dense_covariant_derivative(field_to_grid(R, quartic2d.env), quartic2d),
            quartic2d,
        )
        for key in itertools.product(range(2), repeat=6):
            node = grid
            for i in key:
                node = node[i]
            assert ddR.component(key) == node

    def test_requires_all_lower(self, s2):
        R = riemann_lowered(s2)
        up = raise_index(R, 0, s2.inverse())
        with pytest.raises(TensorError):
            covariant_derivative(up, christoffel(s2))

    def test_preserves_antisymmetry_metadata(self, schwarzschild4):
        g = schwarzschild4
        dR = covariant_derivative(riemann_lowered(g), christoffel(g))
        assert dR.nnz() > 0
        assert dR.antisym_pairs == frozenset({(0, 1), (2, 3)})
        for (a, b, c, d, e), value in dR.items():
            assert dR.component((b, a, c, d, e)) == -value
            assert dR.component((a, b, d, c, e)) == -value


class TestOrientedMatchesFull:
    """Raising and nabla compute one orientation of each oriented pair, and
    one image of the pair exchange, and fill the rest; the every-key loops
    in ``oracles`` are the reference, component for component.  The
    raising count P takes is the oracle's count of every product formed.
    Each raised field, lowered back with the every-key loop, gives the
    Riemann tensor again."""

    CHAINS = ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (1,), (2,), (3,))

    @staticmethod
    def assert_same_field(got, want):
        assert got.components == want.components
        assert got.variance == want.variance
        assert got.antisym_pairs == want.antisym_pairs
        assert got.oriented_pairs == want.oriented_pairs

    def test_raise_and_lower(
        self, s3, schwarzschild4, quartic2d, offdiag3d, null3d, null_pair3d
    ):
        # null3d's inverse has one-entry off-diagonal rows that lead to its
        # two-entry row; null_pair3d's lead to each other.
        for g in (s3, schwarzschild4, quartic2d, offdiag3d, null3d, null_pair3d):
            R = riemann_lowered(g)
            ginv = g.inverse()
            up_rows, down_rows = _rows(g.dim, ginv.components), rows(g)
            for chain in self.CHAINS:
                got = want = R
                expected = 0
                for slot in chain:
                    got = raise_index(got, slot, ginv)
                    want, mults = full_contract_slot(want, slot, up_rows, UPPER)
                    self.assert_same_field(got, want)
                    assert got.exchange
                    expected += mults
                # One call raises the whole chain in one sum.
                self.assert_same_field(raise_index(R, chain, ginv), want)
                # The chain raises these slots of a factor with free labels.
                # On a fresh metric no intermediate is built beforehand, so
                # the count reads what the pipeline builds or derives.
                spec = parse_spec(
                    "R(%s)" % ",".join(
                        ("+*" if s in chain else "-*") + label
                        for s, label in enumerate("abcd")
                    )
                )
                fresh = Metric(g.env, g.dim, g.components)
                (built,), counted = build_factor_tensors(fresh, spec)
                self.assert_same_field(built, want)
                assert counted == expected
                for slot in chain:
                    got, _ = full_contract_slot(got, slot, down_rows, LOWER)
                assert got.components == R.components
                assert got.oriented_pairs == R.oriented_pairs

    def test_first_and_second_covariant_derivative(self, s3, schwarzschild4, quartic2d):
        for g in (s3, schwarzschild4, quartic2d):
            gam = christoffel(g)
            got = want = riemann_lowered(g)
            for _ in range(2):
                got = covariant_derivative(got, gam)
                want = full_covariant_derivative(want, gam)
                self.assert_same_field(got, want)
                assert got.exchange

    def test_all_slots_of_nabla_r_in_one_call(self, schwarzschild4, offdiag3d, null_pair3d):
        for g in (schwarzschild4, offdiag3d, null_pair3d):
            ginv = g.inverse()
            up_rows = _rows(g.dim, ginv.components)
            dR = covariant_derivative(riemann_lowered(g), christoffel(g))
            assert dR.nnz() > 0
            want = dR
            for slot in range(5):
                want, _ = full_contract_slot(want, slot, up_rows, UPPER)
            self.assert_same_field(raise_index(dR, range(5), ginv), want)


class TestPairMetadataChecked:
    """A declared antisymmetric pair lets operations fill components they
    never compute, so the constructor rejects a store that contradicts it."""

    @staticmethod
    def field(components, pairs=frozenset({(0, 1)}), variance=(LOWER,) * 3):
        env = SymbolEnv(coordinates=("u", "v", "w"))
        u = env.symbol("u")
        store = {key: sign * u for key, sign in components.items()}
        return TensorField(env, 3, variance, store, antisym_pairs=pairs)

    def test_consistent_store_accepted(self):
        t = self.field({(0, 1, 2): 1, (1, 0, 2): -1})
        assert t.nnz() == 2

    def test_pair_not_adjacent_in_range_and_disjoint(self):
        for pairs in ({(0, 2)}, {(1, 0)}, {(2, 3)}, {(-1, 0)}, {(0, 1), (1, 2)}):
            for variance in ((LOWER,) * 3, (UPPER, LOWER, LOWER)):
                with pytest.raises(TensorError):
                    self.field({}, frozenset(pairs), variance)

    def test_equal_indices_on_pair(self):
        with pytest.raises(TensorError):
            self.field({(1, 1, 2): 1})

    def test_swap_missing_or_not_negated(self):
        with pytest.raises(TensorError):
            self.field({(0, 1, 2): 1})
        with pytest.raises(TensorError):
            self.field({(0, 1, 2): 1, (1, 0, 2): 1})
        with pytest.raises(TensorError):
            self.field({(0, 1, 2): 1, (1, 0, 2): -2})

    def test_lone_swapped_key_rejected(self):
        # A key with key[p] > key[q] whose swap is missing, alone or beside
        # a consistent pair, is rejected, and the error names it.
        for components, lone in (
            ({(1, 0, 2): -1}, (1, 0, 2)),
            ({(0, 1, 2): 1, (1, 0, 2): -1, (2, 1, 0): 1}, (2, 1, 0)),
            ({(0, 1, 2): 1}, (0, 1, 2)),
        ):
            message = "component %s is not minus its swap" % re.escape(repr(lone))
            with pytest.raises(TensorError, match=message):
                self.field(components)

    @pytest.mark.parametrize(
        "variance, components, message",
        [
            (("u", "x", "l"), {}, "variance slots"),
            ((LOWER,) * 3, {(0, 1): 1}, "does not match rank"),
            ((LOWER,) * 3, {(0, 1, 3): 1}, "out of range"),  # index 3 in 3 dimensions
        ],
    )
    def test_bad_slots_and_keys_rejected(self, variance, components, message):
        with pytest.raises(TensorError, match=message):
            self.field(components, frozenset(), variance)

    @staticmethod
    def riemann_like(values, variance=(LOWER,) * 4, pairs=RIEMANN_PAIRS):
        """A rank-4 field declaring the pair exchange: each (a, b, c, d) of
        ``values`` with its swaps on both antisymmetric pairs, negated."""
        env = SymbolEnv(coordinates=("u", "v", "w"))
        u = env.symbol("u")
        store = {}
        for (a, b, c, d), sign in values.items():
            for w, x, first in ((a, b, 1), (b, a, -1)):
                for y, z, second in ((c, d, 1), (d, c, -1)):
                    store[(w, x, y, z)] = sign * first * second * u
        return TensorField(env, 3, variance, store, antisym_pairs=pairs, exchange=True)

    def test_pair_exchange_checked(self):
        # R_0102 = R_0201 is accepted; an exchange that is missing or not
        # equal is rejected, and the error names the key.
        assert self.riemann_like({(0, 1, 0, 2): 1, (0, 2, 0, 1): 1}).nnz() == 8
        for values in ({(0, 1, 0, 2): 1}, {(0, 1, 0, 2): 1, (0, 2, 0, 1): -1}):
            with pytest.raises(TensorError, match="is not equal to its pair exchange"):
                self.riemann_like(values)
        # Every key of R_1201's orbit has key[:2] > key[2:4].
        with pytest.raises(TensorError, match=re.escape("(1, 2, 0, 1) is not equal")):
            self.riemann_like({(1, 2, 0, 1): 1})
        # Inactive at a variance whose first two slots differ from the next two.
        broken = self.riemann_like({(0, 1, 0, 2): 1}, variance=(UPPER,) + (LOWER,) * 3)
        assert broken.nnz() == 4
        with pytest.raises(TensorError, match="needs antisymmetric pairs"):
            self.riemann_like({}, pairs=frozenset({(0, 1)}))

    def test_mixed_pair_values_not_checked(self):
        t = self.field({(0, 1, 2): 1, (1, 1, 2): 1}, variance=(UPPER, LOWER, LOWER))
        assert t.nnz() == 2
        assert t.oriented_pairs == frozenset()


@pytest.mark.parametrize(
    "dim, coordinates, message",
    [(0, (), "dimension must be"), (2, ("u", "v", "w"), "exactly dim coordinates")],
)
def test_metric_dimension_checked(dim, coordinates, message):
    with pytest.raises(TensorError, match=message):
        Metric(SymbolEnv(coordinates=coordinates), dim, {})


def test_metric_symmetry_enforced():
    env = SymbolEnv(coordinates=("u", "v"))
    x = env.symbol("u")
    with pytest.raises(TensorError):
        Metric(env, 2, {(0, 1): x, (1, 0): x + 1, (0, 0): env.one(), (1, 1): env.one()})


def test_metric_symmetry_enforced_against_zero():
    # A zero on one side of the diagonal is a value too: g_01 = 0 with
    # g_10 = u is not a symmetric metric, whichever is given first.
    env = SymbolEnv(coordinates=("u", "v"))
    x, zero, one = env.symbol("u"), env.zero(), env.one()
    for off in ({(0, 1): zero, (1, 0): x}, {(1, 0): x, (0, 1): zero}):
        with pytest.raises(TensorError):
            Metric(env, 2, {(0, 0): one, (1, 1): one, **off})
    g = Metric(env, 2, {(0, 0): one, (0, 1): zero, (1, 0): zero, (1, 1): one})
    assert g.components == {(0, 0): one, (1, 1): one}


def test_tensor_field_drops_zero_components(s2):
    env = s2.env
    t = TensorField(env, 2, (LOWER,), {(0,): env.zero(), (1,): env.one()})
    assert t.nnz() == 1
    assert t.component((0,)).is_zero
