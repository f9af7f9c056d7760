import pytest

from curvinv.metrics import flat, kerr, metric_by_name, sphere_metric
from curvinv.pipeline import run_invariant
from curvinv.tensor import TensorError, riemann_lowered

KRETSCHMANN = "R(+a,+b,+c,+d) R(-a,-b,-c,-d)"


class TestFlat:
    def test_minkowski_signature(self):
        g = flat(4)
        assert g.component(0, 0) == g.env.integer(-1)
        assert all(g.component(i, i) == g.env.one() for i in range(1, 4))
        assert all(g.component(i, j).is_zero for i in range(4) for j in range(4) if i != j)

    def test_rejects_dim_below_two(self):
        with pytest.raises(TensorError):
            flat(1)

    def test_curvature_free_up_to_eleven(self):
        for dim in range(2, 12):
            assert riemann_lowered(flat(dim)).nnz() == 0


class TestSphere:
    def test_one_sphere(self):
        g = sphere_metric(1)
        assert g.dim == 1 and g.component(0, 0) == g.env.one()

    def test_two_sphere_components(self, s2):
        env = s2.env
        assert env.coordinates == ("chi2", "chi1")
        assert s2.component(0, 0) == env.one()
        assert s2.component(1, 1) == env.one() - env.cos("chi2") ** 2

    def test_nested_sine_factors(self, s3):
        env = s3.env
        sin2 = lambda x: env.one() - env.cos(x) ** 2
        assert s3.component(0, 0) == env.one()
        assert s3.component(1, 1) == sin2("chi3")
        assert s3.component(2, 2) == sin2("chi3") * sin2("chi2")

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
        assert kerr4.env.coordinates == ("t", "r", "theta", "phi")

    def test_d4_schwarzschild_limit(self, kerr4):
        g = kerr4.substitute("a", 0)
        env = g.env
        r, mu = env.symbol("r"), env.symbol("mu")
        c = env.cos("theta")
        assert g.component(0, 0) == mu / r - 1
        assert g.component(1, 1) == r / (r - mu)  # 1/(1 - mu/r)
        assert g.component(2, 2) == r ** 2
        assert g.component(3, 3) == r ** 2 * (1 - c ** 2)
        assert g.component(0, 3).is_zero

    def test_substitution_only_for_parameters(self, kerr4, s2):
        assert kerr4.substitute("mu", 2).component(2, 2) == kerr4.component(2, 2)
        for g, name in ((kerr4, "r"), (kerr4, "cos(theta)"), (s2, "cos(chi2)"), (s2, "bogus")):
            with pytest.raises(TensorError, match="parameter"):
                g.substitute(name, 0)

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
                for mon in poly.monoms():
                    for i, e in enumerate(mon):
                        if e:
                            names.add(g.env.gen_names[i])
        variables = set()
        for name in names:
            if name.startswith(("sin(", "cos(")):
                variables.add(name[4:-1])
            else:
                variables.add(name)
        return variables

    def test_explicit_variable_count(self):
        # r, theta, spin, mass plus the D-5 polar angles: D-1 variables
        # once polar angles exist (D >= 5); at D=4 all four base symbols
        # appear with no angles to drop.
        assert self._variables_used(kerr(4)) == {"r", "theta", "a", "mu"}
        for dim in (5, 6, 8):
            assert len(self._variables_used(kerr(dim))) == dim - 1

    def test_d5_metric_symbols(self):
        g = kerr(5)
        assert g.env.coordinates == ("t", "r", "theta", "phi", "chi1")
        # chi1 carries no trig pair and never appears in a component
        assert "chi1" not in g.env.trig_pairs
        assert self._variables_used(g) == {"r", "theta", "a", "mu"}

    def test_sphere_block_prefactor(self):
        g = kerr(6)
        env = g.env
        r, c = env.symbol("r"), env.cos("theta")
        block = r ** 2 * c ** 2
        assert g.component(5, 5) == block  # outermost chi2
        assert g.component(4, 4) == block * (env.one() - env.cos("chi2") ** 2)

    def test_invertible(self, kerr4):
        assert kerr4.inverse().nnz() > 0


def test_metric_registry():
    assert metric_by_name("flat", 5).dim == 5
    assert metric_by_name("sphere", 3).dim == 3
    assert metric_by_name("kerr", 4).dim == 4
    with pytest.raises(TensorError):
        metric_by_name("torus", 4)
