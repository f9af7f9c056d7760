import itertools
import re

import pytest

from curvinv.expr import SymbolEnv
from curvinv.metrics import flat, kerr, metric_by_name, sphere_metric
from curvinv.pipeline import run_invariant
from curvinv.tensor import Metric, TensorError, riemann_lowered

KRETSCHMANN = "R(+a,+b,+c,+d) R(-a,-b,-c,-d)"


class TestFlat:
    def test_minkowski_signature(self):
        g = flat(4)
        assert g.component((0, 0)) == g.env.integer(-1)
        assert all(g.component((i, i)) == g.env.one() for i in range(1, 4))
        assert all(g.component((i, j)).is_zero for i in range(4) for j in range(4) if i != j)

    def test_rejects_dim_below_two(self):
        with pytest.raises(TensorError):
            flat(1)

    def test_curvature_free_up_to_eleven(self):
        for dim in range(2, 12):
            assert riemann_lowered(flat(dim)).nnz() == 0


class TestSphere:
    def test_one_sphere(self):
        g = sphere_metric(1)
        assert g.dim == 1 and g.component((0, 0)) == g.env.one()

    def test_two_sphere_components(self, s2):
        env = s2.env
        assert env.coordinates == ("cos(chi2)", "chi1")
        sin2 = env.one() - env.symbol("cos(chi2)") ** 2
        assert s2.component((0, 0)) == 1 / sin2
        assert s2.component((1, 1)) == sin2
        assert s2.component((0, 1)).is_zero

    def test_nested_sine_factors(self, s3):
        env = s3.env
        assert env.coordinates == ("cos(chi3)", "cos(chi2)", "chi1")
        sin2 = lambda x: env.one() - env.symbol(x) ** 2
        assert s3.component((0, 0)) == 1 / sin2("cos(chi3)")
        assert s3.component((1, 1)) == sin2("cos(chi3)") / sin2("cos(chi2)")
        assert s3.component((2, 2)) == sin2("cos(chi3)") * sin2("cos(chi2)")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constant_unit_curvature(self, n):
        g = sphere_metric(n)
        R = riemann_lowered(g)
        assert R.nnz() > 0
        g_ = g.component
        for a, b, c, d in itertools.product(range(n), repeat=4):
            expected = g_((a, c)) * g_((b, d)) - g_((a, d)) * g_((b, c))
            assert R.component((a, b, c, d)) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(TensorError):
            sphere_metric(0)

    def test_unit_two_sphere_kretschmann(self, s2):
        report = run_invariant(s2, KRETSCHMANN, metric_name="sphere")
        assert report.expression == "4"


class TestKerr:
    def test_rejects_dim_below_four(self):
        with pytest.raises(TensorError):
            kerr(3)

    def test_d4_has_no_sphere_block(self, kerr4):
        assert kerr4.env.coordinates == ("t", "r", "cos(theta)", "phi")

    def test_d4_schwarzschild_limit(self, kerr4):
        g = kerr4.substitute("a", 0)
        env = g.env
        r, mu = env.symbol("r"), env.symbol("mu")
        c = env.symbol("cos(theta)")
        assert g.component((0, 0)) == mu / r - 1
        assert g.component((1, 1)) == r / (r - mu)  # 1/(1 - mu/r)
        assert g.component((2, 2)) == r ** 2 / (1 - c ** 2)
        assert g.component((3, 3)) == r ** 2 * (1 - c ** 2)
        assert g.component((0, 3)).is_zero

    def test_substitution_only_for_parameters(self, kerr4, s2):
        assert kerr4.substitute("mu", 2).component((2, 2)) == kerr4.component((2, 2))
        env = SymbolEnv(coordinates=("r", "w"), parameters=("q",))
        without_q = Metric(env, 2, {(0, 0): env.one(), (1, 1): env.symbol("r") ** 2})
        for g, name in (
            (kerr4, "r"),
            (kerr4, "cos(theta)"),
            (s2, "cos(chi2)"),
            (s2, "bogus"),
            # a second value for a, or any for q, would silently change nothing
            (kerr4.substitute("a", 1), "a"),
            (without_q, "q"),
        ):
            with pytest.raises(TensorError, match="parameter.*%s" % re.escape(repr(name))):
                g.substitute(name, 2)

    def test_cross_term_is_only_off_diagonal(self, kerr4):
        for dim in (4, 6):
            g = kerr4 if dim == 4 else kerr(6)
            for (a, b), value in g.components.items():
                if a != b:
                    assert {a, b} == {0, 3}
                    assert not value.is_zero

    @staticmethod
    def _variables_used(g):
        names = set()
        for value in g.components.values():
            for poly in (value.num, value.den):
                for mon, _ in poly.terms():
                    for i, e in enumerate(mon):
                        if e:
                            names.add(g.env.gen_names[i])
        return names

    def test_explicit_variable_count(self):
        # r, cos(theta), spin, mass plus the D-5 polar coordinates: D-1
        # variables once polar coordinates exist (D >= 5); at D=4 all four
        # base symbols appear with none to drop.
        assert self._variables_used(kerr(4)) == {"r", "cos(theta)", "a", "mu"}
        for dim in (5, 6, 8):
            assert len(self._variables_used(kerr(dim))) == dim - 1

    def test_one_generator_per_symbol(self):
        # every coordinate and parameter is one generator, and nothing else
        for dim in (4, 7):
            assert len(kerr(dim).env.gen_names) == dim + 2
        assert len(sphere_metric(6).env.gen_names) == 6

    def test_d5_metric_symbols(self):
        g = kerr(5)
        assert g.env.coordinates == ("t", "r", "cos(theta)", "phi", "chi1")
        # the azimuthal chi1 never appears in a component
        assert self._variables_used(g) == {"r", "cos(theta)", "a", "mu"}

    def test_sphere_block_prefactor(self):
        g = kerr(6)
        env = g.env
        assert env.coordinates[4:] == ("chi1", "cos(chi2)")
        r, c = env.symbol("r"), env.symbol("cos(theta)")
        block = r ** 2 * c ** 2
        sin2 = env.one() - env.symbol("cos(chi2)") ** 2
        assert g.component((5, 5)) == block / sin2  # outermost chi2
        assert g.component((4, 4)) == block * sin2

    def test_invertible(self, kerr4):
        assert kerr4.inverse().nnz() > 0


def test_metric_registry():
    assert metric_by_name("flat", 5).dim == 5
    assert metric_by_name("sphere", 3).dim == 3
    assert metric_by_name("kerr", 4).dim == 4
    with pytest.raises(TensorError):
        metric_by_name("torus", 4)
