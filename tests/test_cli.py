import json
import os
import subprocess
import sys

import pytest

import curvinv
from curvinv import pipeline, poly
from curvinv.cli import PRESETS, main
from curvinv.metrics import sphere_metric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_flat_invariant_is_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--metric", "flat", "--dim", "7", "--invariant", "I_a"
        )
        assert code == 0
        assert "invariant: 0" in out
        assert "T: 0" in out

    def test_schwarzschild_reduction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--metric", "kerr", "--dim", "4",
            "--invariant", "I_a", "--set", "a=0",
        )
        assert code == 0
        assert "invariant: (12*mu**2)/(r**6)" in out
        assert "workers: 1  parcels: 1  wall_ms: " in out
        assert "pool_ms: 0.0" in out

    def test_json_report_round_trips(self, capsys):
        # no pool cost known yet, as in a fresh process: the pool starts
        code, out, _ = run_cli(
            capsys,
            "run",
            "--metric", "kerr", "--dim", "4",
            "--invariant", "I_a", "--set", "a=0", "--json",
            "--workers", "2", "--parcels", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        assert payload["metric"] == "kerr"
        assert payload["spec"] == PRESETS["I_a"]
        assert payload["expression"] == "(12*mu**2)/(r**6)"
        assert payload["T"] == 1
        assert isinstance(payload["P"], int)
        assert payload["multiplier"] == 4
        assert payload["workers"] == 2
        assert len(payload["per_worker"]) == 2
        assert sum(w["entries"] for w in payload["per_worker"]) >= 1
        assert payload["pool_ms"] > 0

    def test_json_carries_parts_of_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--metric", "sphere", "--dim", "3", "--invariant", "I_a", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["product_count"] == 3
        assert payload["product_count"] + payload["raise_mults"] == payload["P"]

    def test_expression_identical_across_configs(self, capsys):
        outputs = set()
        for workers, parcels in ((1, 1), (3, 2)):
            code, out, _ = run_cli(
                capsys,
                "run",
                "--metric", "sphere", "--dim", "3",
                "--invariant", "kretschmann", "--json",
                "--workers", str(workers), "--parcels", str(parcels),
            )
            assert code == 0
            outputs.add(json.loads(out)["expression"])
        assert len(outputs) == 1

    def test_i1_preset_not_gated(self, capsys, deadline):
        with deadline(5):
            code, out, _ = run_cli(
                capsys, "run", "--metric", "flat", "--dim", "4", "--invariant", "I_1"
            )
        assert code == 0
        assert "invariant: 0" in out

    def test_custom_spec(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--metric", "sphere", "--dim", "2",
            "--spec", "R(+a,+b,+c,+d) R(-a,-b,-c,-d)",
        )
        assert code == 0
        assert "invariant: 4" in out

    def test_bad_spec_diagnostic(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--metric", "flat", "--dim", "4",
            "--spec", "R(+a,+b,+c,+d) R(-a,-b,-c,-e)",
        )
        assert code == 2
        assert "error" in err

    def test_free_labels_rejected(self, capsys, monkeypatch):
        # rejected before any factor tensor is built
        def no_build(*args):
            raise AssertionError("factor tensors built for a spec with free labels")

        monkeypatch.setattr(pipeline, "build_factor_tensors", no_build)
        with pytest.raises(ValueError, match="contract_free"):
            pipeline.run_invariant(sphere_metric(2), "R(+a,-*b,-a,-*d)")
        code, _, err = run_cli(
            capsys,
            "run",
            "--metric", "sphere", "--dim", "2",
            "--spec", "R(+a,-*b,-a,-*d)",
        )
        assert code == 2
        assert "free" in err

    @pytest.mark.parametrize(
        "spec", ["R(+a,+b,+c,+d) R(+a,+b,+c,+d)", "R(+a,-b,+a,-b)"]
    )
    def test_same_variance_contraction_rejected(self, capsys, spec):
        # summed without the metric, these are not invariants
        code, out, err = run_cli(
            capsys, "run", "--metric", "sphere", "--dim", "2", "--spec", spec
        )
        assert code == 2
        assert out == ""
        assert "upper on one slot and lower on the other" in err

    def test_bad_substitution(self, capsys):
        for substitution, message in (("a=one", "bad rational"), ("a", "SYM=VALUE")):
            code, _, err = run_cli(
                capsys,
                "run",
                "--metric", "kerr", "--dim", "4",
                "--invariant", "I_a", "--set", substitution,
            )
            assert code == 2
            assert message in err

    @pytest.mark.parametrize(
        "metric, substitution",
        [("kerr", "r=1"), ("sphere", "cos(chi2)=0")],
    )
    def test_non_parameter_substitution_rejected(self, capsys, metric, substitution):
        # fixing a coordinate before differentiating gives a wrong invariant
        # (I_a of the unit 2-sphere is 4, not 0)
        dim = "4" if metric == "kerr" else "2"
        code, out, err = run_cli(
            capsys,
            "run",
            "--metric", metric, "--dim", dim,
            "--invariant", "I_a", "--set", substitution,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "parameter" in err

    def test_repeated_substitution_rejected(self, capsys):
        # the second value would silently change nothing
        code, out, err = run_cli(
            capsys,
            "run",
            "--metric", "kerr", "--dim", "4",
            "--invariant", "I_a", "--set", "a=1", "--set", "a=2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'a'" in err

    def test_gcd_failure_is_reported(self, capsys, monkeypatch):
        # with no evaluation point to try, every heuristic GCD fails; S^3's
        # second polar denominator refines the coprime basis by a GCD
        monkeypatch.setattr(poly, "HEU_GCD_MAX", 0)
        code, out, err = run_cli(
            capsys, "run", "--metric", "sphere", "--dim", "3", "--invariant", "I_a"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "GCD" in err


def test_runtime_imports_no_sympy():
    script = (
        "import sys\n"
        "import curvinv.cli\n"
        "from curvinv.pipeline import metric_with_substitutions\n"
        "metric_with_substitutions('kerr', 4, [('a', 1)])\n"
        "loaded = [m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestCount:
    @pytest.mark.parametrize(
        "dim, substitutions",
        [("2", ()), ("4", ("--set", "r=1"))],
    )
    def test_rejects_what_run_rejects(self, capsys, dim, substitutions):
        # no Kerr metric in D=2, and only parameters may be fixed
        for command in ("run", "count"):
            code, out, err = run_cli(
                capsys,
                command,
                "--metric", "kerr", "--dim", dim, "--invariant", "I_a", *substitutions,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_i1_worst_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--metric", "kerr", "--dim", "4", "--invariant", "I_1"
        )
        assert code == 0
        assert "6553600" in out
        assert "independent curvature components: 20" in out

    def test_d11_independent_components(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--metric", "kerr", "--dim", "11", "--invariant", "I_a", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["independent_components"] == 1210

    def test_i2_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--metric", "kerr", "--dim", "4", "--invariant", "I_2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_case_products"] == 24576
        assert payload["multiplier"] == 2
        assert payload["abbreviated_pairs"] == [["c", "d"]]

    def test_enumerate_realized_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count",
            "--metric", "sphere", "--dim", "2",
            "--invariant", "kretschmann", "--json", "--enumerate",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["enumerated_products"] == 1
        assert payload["worst_case_products"] == 1

    def test_i1_on_flat_enumerates_nothing(self, capsys, deadline):
        # 4**12 label assignments, none of them stored
        with deadline(5):
            code, out, _ = run_cli(
                capsys,
                "count",
                "--metric", "flat", "--dim", "4",
                "--invariant", "I_1", "--json", "--enumerate",
            )
        assert code == 0
        assert json.loads(out)["enumerated_products"] == 0
