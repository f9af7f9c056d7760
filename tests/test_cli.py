import json

import pytest

from curvinv.cli import PRESETS, main


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

    def test_json_report_round_trips(self, capsys):
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

    def test_large_preset_gated(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--metric", "kerr", "--dim", "4", "--invariant", "I_1"
        )
        assert code == 2
        assert "allow-large" in err

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

    def test_free_labels_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--metric", "sphere", "--dim", "2",
            "--spec", "R(+a,-*b,-a,-*d)",
        )
        assert code == 2
        assert "free" in err

    def test_bad_substitution(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--metric", "kerr", "--dim", "4",
            "--invariant", "I_a", "--set", "a=one",
        )
        assert code == 2

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


class TestCount:
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
