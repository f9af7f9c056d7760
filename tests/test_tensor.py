import itertools

import pytest

from curvinv.expr import SymbolEnv
from curvinv.metrics import KerrParams, flat, kerr, sphere_metric
from curvinv.tensor import (
    LOWER,
    Metric,
    OpCounter,
    SingularMetricError,
    TensorError,
    TensorField,
    UPPER,
    christoffel,
    covariant_derivative,
    inverse_metric,
    lower_index,
    raise_index,
    riemann_independent_nonzero_count,
    riemann_lowered,
)

from oracles import (
    adjugate_inverse,
    dense_christoffel,
    dense_covariant_derivative,
    dense_riemann_lowered,
    field_to_grid,
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
                    acc = acc + inv.component((a, b)) * kerr4.component(b, c)
                assert acc == (env.one() if a == c else env.zero())

    def test_matches_adjugate_oracle(self, s2, kerr4):
        for g in (s2, kerr4):
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
        # coordinates (chi2, chi1) = (polar, azimuthal)
        env = s2.env
        gam = christoffel(s2)
        s, c = env.sin("chi2"), env.cos("chi2")
        assert gam.component(0, 1, 1) == -s * c
        assert gam.component(1, 0, 1) == c / s
        assert gam.component(1, 1, 0) == c / s
        assert gam.nnz() == 2

    def test_polar_radial_component(self):
        env = SymbolEnv(coordinates=("r", "phi"))
        r = env.symbol("r")
        g = Metric(env, 2, {(0, 0): env.one(), (1, 1): r ** 2})
        gam = christoffel(g)
        assert gam.component(1, 0, 1) == 1 / r
        assert gam.component(0, 1, 1) == -r

    def test_matches_dense_oracle(self, s2, quartic2d, s3):
        for g in (s2, quartic2d, s3):
            oracle = dense_christoffel(g)
            gam = christoffel(g)
            for a in range(g.dim):
                for b in range(g.dim):
                    for c in range(g.dim):
                        assert gam.component(a, b, c) == oracle[a][b][c]

    def test_lower_symmetry(self, kerr4):
        gam = christoffel(kerr4)
        for (a, b, c) in gam.components:
            assert gam.component(a, b, c) == gam.component(a, c, b)


class TestRiemann:
    def test_flat_empty(self):
        for dim in range(2, 12):
            assert riemann_lowered(flat(dim)).nnz() == 0

    def test_unit_sphere_value(self, s2):
        R = riemann_lowered(s2)
        env = s2.env
        sin2 = env.one() - env.cos("chi2") ** 2
        assert R.component((0, 1, 0, 1)) == sin2
        assert riemann_independent_nonzero_count(R) == 1

    def test_matches_dense_oracle(self, s2, quartic2d, s3):
        for g in (s2, quartic2d, s3):
            oracle = dense_riemann_lowered(g)
            R = riemann_lowered(g)
            for key in itertools.product(range(g.dim), repeat=4):
                assert R.component(key) == oracle[key[0]][key[1]][key[2]][key[3]]

    def test_given_connection(self, s3, quartic2d):
        for g in (s3, quartic2d):
            assert riemann_lowered(g, christoffel(g)).same_components(riemann_lowered(g))

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
            expected = value / quartic2d.component(key[0], key[0])
            assert up.component(key) == expected

    def test_round_trip(self, kerr4, kerr4_riemann):
        R = kerr4_riemann
        inv = kerr4.inverse()
        up = raise_index(R, 2, inv)
        back = lower_index(up, 2, kerr4)
        assert back.same_components(R)
        assert back.variance == R.variance

    def test_sphere_fully_raised(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        t = R
        for slot in range(4):
            t = raise_index(t, slot, inv)
        sin2 = s2.env.one() - s2.env.cos("chi2") ** 2
        assert t.component((0, 1, 0, 1)) == 1 / sin2
        assert t.antisym_pairs == frozenset({(0, 1), (2, 3)})
        assert t.variance == (UPPER,) * 4

    def test_counter_counts_nonzero_products(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        counter = OpCounter()
        raise_index(R, 0, inv, counter)
        # diagonal inverse: one product per stored component
        assert counter.mults == R.nnz()

    def test_slot_errors(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        with pytest.raises(TensorError):
            raise_index(R, 7, inv)
        up = raise_index(R, 0, inv)
        with pytest.raises(TensorError):
            raise_index(up, 0, inv)
        with pytest.raises(TensorError):
            lower_index(R, 0, s2)

    def test_mixed_pair_metadata(self, s2):
        R = riemann_lowered(s2)
        inv = s2.inverse()
        half = raise_index(R, 0, inv)
        assert (0, 1) not in half.antisym_pairs
        assert (0, 1) in half.mixed_pairs
        assert (2, 3) in half.antisym_pairs
        full = raise_index(half, 1, inv)
        assert (0, 1) in full.antisym_pairs
        assert not full.mixed_pairs


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
        for g in (s2, s3, quartic2d, kerr4):
            gam = christoffel(g)
            assert covariant_derivative(g.as_field(), gam).nnz() == 0

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

    def test_preserves_antisymmetry_metadata(self, s3):
        R = riemann_lowered(s3)
        dR = covariant_derivative(R, christoffel(s3))
        assert dR.antisym_pairs == frozenset({(0, 1), (2, 3)})
        for (a, b, c, d, e), value in dR.items():
            assert dR.component((b, a, c, d, e)) == -value


def test_metric_symmetry_enforced():
    env = SymbolEnv(coordinates=("u", "v"))
    x = env.symbol("u")
    with pytest.raises(TensorError):
        Metric(env, 2, {(0, 1): x, (1, 0): x + 1, (0, 0): env.one(), (1, 1): env.one()})


def test_tensor_field_drops_zero_components(s2):
    env = s2.env
    t = TensorField(env, 2, (LOWER,), {(0,): env.zero(), (1,): env.one()})
    assert t.nnz() == 1
    assert t.component((0,)).is_zero
