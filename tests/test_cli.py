"""Command-line interface: exit codes, report determinism, formats."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from test_channels import json_values, mutated_records, valid_records

from cvchan import cli
from cvchan import channels as ch
from cvchan import functionals as fn
from cvchan import majorization as mj
from cvchan import symplectic as sp


@pytest.fixture
def thermal_spec(tmp_path):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps({"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0]}))
    return str(path)


@pytest.fixture
def identity_spec(tmp_path):
    path = tmp_path / "identity.json"
    record = ch.channel_to_record(ch.classical_noise(np.zeros((2, 2))))
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture
def custom_spec(tmp_path):
    path = tmp_path / "custom.json"
    record = ch.channel_to_record(ch.make_channel(0.5 * np.eye(2), np.eye(2)))
    path.write_text(json.dumps(record))
    return str(path)


class TestAnalyze:
    def test_identity_channel(self, identity_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--channel", identity_spec, "--p", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["results"][0]
        assert entry["xi_p"] == pytest.approx(1.0, rel=1e-9)
        assert entry["S_min"] == pytest.approx(0.0, abs=1e-7)

    def test_thermal_channel(self, thermal_spec, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--channel", thermal_spec, "--p", "2", "--out", str(out)])
        assert code == 0
        entry = json.loads(out.read_text())["results"][0]
        assert entry["xi_p"] == pytest.approx(2.0 / np.sqrt(8.0), rel=1e-9)
        assert entry["inf_F_p"] == pytest.approx(8.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_product_is_strict_json(self, tmp_path):
        # F_400 of three thermal(0.5, 1) modes is (3^400 - 1)^3, beyond float range.
        spec = tmp_path / "thermal3.json"
        spec.write_text(json.dumps({"n_modes": 3, "kind": "thermal", "eta": [0.5] * 3, "nbar": [1.0] * 3}))
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--channel", str(spec), "--p", "400", "--out", str(out)]) == 0

        def reject(literal):
            raise ValueError(f"non-JSON literal {literal}")

        entry = json.loads(out.read_text(), parse_constant=reject)["results"][0]
        log_fp = 400.0 * np.log(3.0) + np.log1p(-(3.0**-400))
        assert entry["inf_F_p"] is None
        assert entry["log_inf_F_p"] == pytest.approx(3.0 * log_fp, rel=1e-14)
        assert entry["xi_p"] == pytest.approx(8.0 * np.exp(-3.0 * log_fp / 400.0), rel=1e-12)

    def test_overflowing_numeric_search_is_strict_json(self, tmp_path):
        # F_1000 of any 2-mode output exceeds 2^2000, beyond float range.
        x = np.diag([0.9, 0.6, 0.7, 0.8])
        y = np.diag([0.5, 0.8, 0.9, 0.4])
        spec = tmp_path / "custom2.json"
        spec.write_text(json.dumps(ch.channel_to_record(ch.make_channel(x, y))))
        out = tmp_path / "report.json"
        argv = ["analyze", "--channel", str(spec), "--numeric", "--p", "1000", "--budget", "300", "--out", str(out)]
        assert cli.main(argv) == 0

        def reject(literal):
            raise ValueError(f"non-JSON literal {literal}")

        entry = json.loads(out.read_text(), parse_constant=reject)["results"][0]
        assert entry["closed_form"] is False
        assert entry["inf_F_p"] is None
        # The search starts at the vacuum input and never goes below the
        # purity floor F_p = 2^(p n).
        nu = sp.symplectic_eigenvalues(x.T @ x + y)
        log_vacuum = float(np.sum(1000.0 * np.log1p(nu) + np.log1p(-(((nu - 1.0) / (nu + 1.0)) ** 1000))))
        assert 2000.0 * np.log(2.0) <= entry["log_inf_F_p"] <= log_vacuum + 1e-9
        assert entry["xi_p"] == pytest.approx(4.0 * np.exp(-entry["log_inf_F_p"] / 1000.0), rel=1e-12)
        assert 0.0 < entry["xi_p"] <= 1.0

    def test_numeric_min_entropy_is_searched_once(self, custom_spec, tmp_path, search_calls):
        # S_min does not depend on p: one F_p search per p plus one S_min search.
        out = tmp_path / "report.json"
        argv = ["analyze", "--channel", custom_spec, "--numeric", "--p", "2,3", "--budget", "300", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(search_calls) == 3
        first, second = json.loads(out.read_text())["results"]
        assert first["S_min"] == second["S_min"]

    @pytest.mark.parametrize(
        "command", [["analyze", "--p", "2"], ["capacity", "--energy", "1.5"]], ids=["analyze", "capacity"]
    )
    def test_tol_is_not_an_option(self, command, thermal_spec, capsys):
        # --tol belongs to verify; analyze and capacity have no check it sets.
        code = cli.main([command[0], "--channel", thermal_spec, *command[1:], "--tol", "5"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "--tol" in capsys.readouterr().err

    def test_malformed_spec_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # Asymmetric Y: row-major [[1, 0.5], [0, 1]].
        path.write_text(json.dumps({"n_modes": 1, "kind": "classical", "Y": [1.0, 0.5, 0.0, 1.0]}))
        code = cli.main(["analyze", "--channel", str(path), "--p", "2"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "Y" in capsys.readouterr().err

    def test_custom_without_numeric_exits_3(self, custom_spec, capsys):
        code = cli.main(["analyze", "--channel", custom_spec, "--p", "2"])
        assert code == cli.EXIT_UNSUPPORTED
        assert "numeric" in capsys.readouterr().err

    def test_custom_with_numeric_succeeds(self, custom_spec, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["analyze", "--channel", custom_spec, "--p", "2", "--numeric", "--budget", "1500", "--out", str(out)]
        )
        assert code == 0
        entry = json.loads(out.read_text())["results"][0]
        assert entry["closed_form"] is False
        assert np.isfinite(entry["inf_F_p"])

    def test_csv_format(self, thermal_spec, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(["analyze", "--channel", thermal_spec, "--p", "2,3", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per p
        assert "xi_p" in lines[0]


class TestCapacity:
    def test_identity_capacity(self, identity_spec, tmp_path):
        out = tmp_path / "cap.json"
        code = cli.main(
            ["capacity", "--channel", identity_spec, "--energy", "1.5", "--budget", "6000", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["capacity"] == pytest.approx(2.0 * np.log(2.0), abs=1e-3)
        assert result["flag"] == "ok"

    def test_infeasible_energy(self, thermal_spec, tmp_path):
        out = tmp_path / "cap.json"
        code = cli.main(["capacity", "--channel", thermal_spec, "--energy", "0.2", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["capacity"] == 0.0
        assert result["flag"] == "infeasible"

    def test_byte_identical_reports_for_same_seed(self, thermal_spec, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["capacity", "--channel", thermal_spec, "--energy", "1.2", "--budget", "2000", "--seed", "7"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_readme_configuration_is_exact(self, tmp_path):
        # The water-filled value g(1) - g(0.5), with no search fields in the record.
        path = tmp_path / "thermal.json"
        path.write_text(json.dumps({"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0], "omega": [1.0]}))
        out = tmp_path / "cap.json"
        argv = ["capacity", "--channel", str(path), "--energy", "1.5", "--budget", "20000", "--seed", "1"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        g_1, g_half = 2.0 * np.log(2.0), 1.5 * np.log(1.5) - 0.5 * np.log(0.5)
        assert abs(result["capacity"] - (g_1 - g_half)) <= 1e-12
        assert result["sup_entropy"] == pytest.approx(g_1, abs=1e-12)
        assert not {"evaluations", "budget", "converged"} & set(result)

    def test_extreme_frequency_and_energy(self, tmp_path, capsys):
        # 1e306 output photons: the entropy must neither cancel to NaN nor warn.
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n_modes": 1, "kind": "thermal", "eta": [1.0], "nbar": [1.0]}))
        code = cli.main(["capacity", "--channel", str(path), "--omega", "1e-300", "--energy", "1e6"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        result = json.loads(captured.out, parse_constant=_reject_literal)["result"]
        assert result["capacity"] == pytest.approx(1.0 + 306.0 * np.log(10.0), rel=1e-12)

    def test_bad_omega_count(self, thermal_spec, capsys):
        code = cli.main(["capacity", "--channel", thermal_spec, "--energy", "1.0", "--omega", "1.0,2.0"])
        assert code == cli.EXIT_INPUT_ERROR

    def test_omega_read_from_channel_file(self, tmp_path):
        path = tmp_path / "scaled.json"
        path.write_text(
            json.dumps({"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0], "omega": [2.0]})
        )
        out = tmp_path / "cap.json"
        # Zero-point is now 1.0, so energy 0.8 is infeasible.
        code = cli.main(["capacity", "--channel", str(path), "--energy", "0.8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["omega"] == [2.0]
        assert report["result"]["flag"] == "infeasible"


class TestVerify:
    def test_theorem1_small(self, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(
            ["verify", "theorem1", "--trials", "300", "--max-modes", "3", "--seed", "23", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["pass"] is True
        assert report["seed"] == 23

    def test_concavity(self, tmp_path):
        out = tmp_path / "v.json"
        assert cli.main(["verify", "concavity", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["pass"] is True

    def test_schur(self, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(["verify", "schur", "--trials", "200", "--max-modes", "4", "--out", str(out)])
        assert code == 0

    def test_lemma1_small(self, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(
            ["verify", "lemma1", "--instances", "3", "--trials", "300", "--max-modes", "2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["result"]["witness_gap"] <= 1e-8

    @pytest.mark.parametrize(
        "target, key, counts",
        [
            ("theorem1", "prefix_atol", ["--trials", "100", "--max-modes", "2"]),
            ("lemma1", "prefix_atol", ["--instances", "2", "--trials", "100", "--max-modes", "2"]),
            ("schur", "prefix_atol", ["--trials", "50", "--max-modes", "2"]),
            ("concavity", "concavity_bound", []),
            ("multiplicativity", "tol_opt", ["--budget", "200"]),
        ],
        ids=["theorem1", "lemma1", "schur", "concavity", "multiplicativity"],
    )
    def test_negative_tolerance_fails_with_counterexample(self, target, key, counts, tmp_path):
        # --tol=-1e6 demands a margin no check can meet, so every target must
        # detect, count and report the violation.  The '=' form keeps argparse
        # from reading -1e6 as an option.
        out = tmp_path / "v.json"
        code = cli.main(["verify", target, *counts, "--tol=-1e6", "--out", str(out)])
        assert code == cli.EXIT_VERIFY_FAILED
        report = json.loads(out.read_text())
        assert report["tolerances"][key] == -1e6
        results = report.get("results") or [report["result"]]
        assert all(entry["pass"] is False for entry in results)
        if target in ("theorem1", "lemma1", "schur"):
            assert results[0]["failures"] > 0
            assert results[0]["counterexample"] is not None

    def test_verify_reports_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["verify", "schur", "--trials", "100", "--seed", "3"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_multiplicativity_battery(self, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(["verify", "multiplicativity", "--budget", "2500", "--out", str(out)])
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) >= 5
        assert all(entry["pass"] for entry in results)

    def test_additivity_small(self, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(["verify", "additivity", "--energy", "2.0", "--budget", "3000", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["pass"] is True

    def test_additivity_readme_configuration_is_exact(self, tmp_path):
        # The best split of classical(2 I) x classical(I) at E = 3 is exact,
        # so the joint search meets it far inside the 1e-3 tolerance.
        out = tmp_path / "v.json"
        code = cli.main(["verify", "additivity", "--energy", "3.0", "--budget", "8000", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert abs(result["margin"]) <= 1e-6
        assert result["best_split"] == pytest.approx([1.25, 1.75], abs=1e-12)
        assert result["best_split_value"] == pytest.approx(1.2640841428955, abs=1e-12)

    def test_unknown_target_is_usage_error(self, capsys):
        code = cli.main(["verify", "nonsense"])
        assert code == cli.EXIT_INPUT_ERROR


#: A small configuration of every verify target.
SMALL_VERIFY = {
    "theorem1": ["--trials", "100", "--max-modes", "2"],
    "lemma1": ["--instances", "2", "--trials", "100", "--max-modes", "2"],
    "schur": ["--trials", "50", "--max-modes", "2"],
    "concavity": [],
    "multiplicativity": ["--budget", "200"],
    "additivity": ["--budget", "200"],
}


class TestVerifyPassIsExitStatus:
    """A verify report passes exactly when the command exits 0."""

    @staticmethod
    def _run(target, tmp_path, *extra):
        out = tmp_path / "v.json"
        code = cli.main(["verify", target, *SMALL_VERIFY[target], *extra, "--out", str(out)])
        report = json.loads(out.read_text())
        return code, [entry["pass"] for entry in report.get("results") or [report["result"]]], report

    def test_every_target_is_covered(self):
        assert set(SMALL_VERIFY) == set(cli.VERIFY_TARGETS)

    @pytest.mark.parametrize("tol", [[], ["--tol=-1e6"]], ids=["default", "negative-tol"])
    @pytest.mark.parametrize("target", list(SMALL_VERIFY))
    def test_pass_is_exit_status(self, target, tol, tmp_path):
        code, passes, _ = self._run(target, tmp_path, *tol)
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
        assert all(passes) == (code == cli.EXIT_OK)

    def test_lemma1_witness_off_its_bound_fails(self, tmp_path, monkeypatch):
        # Williamson rows scaled by 1.001 miss the trace bound; no sample
        # fails, so only the witness bound can fail the campaign.
        williamson = mj.williamson
        monkeypatch.setattr(mj, "williamson", lambda a: dataclasses.replace(williamson(a), s=1.001 * williamson(a).s))
        code, passes, report = self._run("lemma1", tmp_path)
        assert report["result"]["failures"] == 0
        assert report["result"]["witness_gap"] > mj.WITNESS_ATOL
        assert passes == [False]
        assert code == cli.EXIT_VERIFY_FAILED


class TestInvalidInputExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem1", "--trials", "0"],
            ["verify", "lemma1", "--instances", "0"],
            ["verify", "schur", "--trials", "0"],
            ["verify", "additivity", "--energy", "nan"],
            ["capacity", "--channel", "{thermal}", "--energy", "1.5", "--budget", "0"],
            ["capacity", "--channel", "{thermal}", "--energy", "inf"],
            ["analyze", "--channel", "{thermal}", "--p", "nan"],
            ["analyze", "--channel", "{thermal}", "--p", "2,inf"],
            ["analyze", "--channel", "{thermal}", "--seed", "-1"],
            ["verify", "concavity", "--seed", "-1"],
            ["capacity", "--channel", "{thermal}", "--energy", "1.5", "--seed", "-1"],
            ["analyze", "--channel", "{thermal}", "--budget", "0"],
            ["verify", "theorem1", "--trials", "10", "--budget", "-3"],
        ],
        ids=lambda argv: " ".join(arg for arg in argv if arg not in ("--channel", "{thermal}")),
    )
    def test_exits_2_with_one_line(self, argv, thermal_spec, capsys):
        code = cli.main([thermal_spec if arg == "{thermal}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "schur", "--trials", "10", "--seed", "-1"], "--seed"),
            (["capacity", "--channel", "{thermal}", "--energy", "1.5", "--budget", "0"], "--budget"),
        ],
    )
    def test_seed_and_budget_errors_name_the_option(self, argv, option, thermal_spec, capsys):
        assert cli.main([thermal_spec if arg == "{thermal}" else arg for arg in argv]) == cli.EXIT_INPUT_ERROR
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--channel", "{thermal}"],
            ["capacity", "--channel", "{thermal}", "--energy", "1.5"],
            ["verify", "concavity"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_2_with_one_line(self, argv, thermal_spec, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = cli.main([thermal_spec if arg == "{thermal}" else arg for arg in argv] + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_non_finite_result_exits_2_not_invalid_json(self, thermal_spec, monkeypatch, capsys):
        nan_report = fn.CapacityReport(float("nan"), True, 0.0)
        monkeypatch.setattr(fn, "gaussian_holevo_capacity", lambda *args, **kwargs: nan_report)
        code = cli.main(["capacity", "--channel", thermal_spec, "--energy", "1.5"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestInvalidChannelFiles:
    @pytest.mark.parametrize(
        "field, record, command",
        [
            ("eta", {"n_modes": 1, "kind": "thermal", "eta": {"a": 1}, "nbar": [1.0]}, ["analyze"]),
            ("eta", {"n_modes": 1, "kind": "thermal", "eta": [float("nan")], "nbar": [1.0]}, ["analyze"]),
            (
                "X",
                {"n_modes": 1, "kind": "custom", "X": [float("nan"), 0.0, 0.0, 1.0], "Y": [1.0, 0.0, 0.0, 1.0]},
                ["analyze", "--numeric", "--budget", "100"],
            ),
            (
                "omega",
                {"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0], "omega": [float("nan")]},
                ["capacity", "--energy", "1.5", "--budget", "100"],
            ),
            ("n_modes", {"n_modes": 1.7, "kind": "thermal", "eta": ["0.5"], "nbar": [1]}, ["analyze"]),
            ("n_modes", {"n_modes": True, "kind": "lossy", "eta": [True]}, ["analyze"]),
            ("n_modes", {"n_modes": "1", "kind": "lossy", "eta": [0.5]}, ["analyze"]),
            ("eta", {"n_modes": 1, "kind": "thermal", "eta": ["0.5"], "nbar": [1]}, ["analyze"]),
            ("eta", {"n_modes": 1, "kind": "lossy", "eta": [True]}, ["analyze"]),
            ("nbar", {"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": ["1"]}, ["analyze"]),
            ("Y", {"n_modes": 1, "kind": "classical", "Y": [True, 0, 0, True]}, ["analyze"]),
            (
                "X",
                {"n_modes": 1, "kind": "custom", "X": ["1", 0.0, 0.0, 1.0], "Y": [1.0, 0.0, 0.0, 1.0]},
                ["analyze", "--numeric", "--budget", "100"],
            ),
            (
                "omega",
                {"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0], "omega": [True]},
                ["capacity", "--energy", "1.5", "--budget", "100"],
            ),
            ("eta", {"n_modes": 1, "kind": "lossy", "eta": [10**400]}, ["analyze"]),
            ("<file>", 5, ["analyze"]),
            ("<file>", None, ["analyze"]),
            ("<file>", "n_modes", ["analyze"]),
        ],
        ids=[
            "eta-object", "eta-nan", "custom-X-nan", "omega-nan", "n_modes-fractional", "n_modes-bool",
            "n_modes-string", "eta-string", "eta-bool", "nbar-string", "Y-bool", "custom-X-string", "omega-bool",
            "eta-integer-beyond-float", "top-level-number", "top-level-null", "top-level-string",
        ],
    )
    def test_exits_2_naming_the_field(self, field, record, command, tmp_path, capsys):
        # json.dumps writes NaN as the literal that Python's json reads back.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        code = cli.main([command[0], "--channel", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert f"'{field}'" in captured.err


class TestReportEnvelope:
    def test_reports_embed_version_seed_tolerances(self, thermal_spec, tmp_path):
        out = tmp_path / "r.json"
        cli.main(["analyze", "--channel", thermal_spec, "--p", "2", "--seed", "5", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["tool"] == "cvchan"
        assert report["seed"] == 5
        assert "version" in report and "tolerances" in report


#: A spec file holds any JSON value, a valid record, or a valid record with
#: one field mutated; the p lists include a rejected order and an overflowing one.
spec_documents = hst.one_of(json_values, valid_records(), mutated_records())
p_lists = hst.sampled_from(("2", "1.5,3", "0.5", "400"))


def _reject_literal(literal):
    raise ValueError(f"non-JSON literal {literal}")


def _run_and_check_streams(argv: list[str], json_report: bool = True) -> int:
    """Run the CLI; on exit 2 stdout is empty and stderr one error line, and
    any other exit writes a strict-JSON report when the format is JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_INPUT_ERROR:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    elif json_report and code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
        json.loads(out.getvalue(), parse_constant=_reject_literal)
    return code


def _spec_file(tmp_path_factory, document) -> str:
    path = tmp_path_factory.mktemp("spec") / "channel.json"
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec_documents, p_lists)
def test_analyze_exit_code_is_total(tmp_path_factory, document, p):
    # Without --numeric no search runs: a channel without a closed form exits 3.
    code = _run_and_check_streams(["analyze", "--channel", _spec_file(tmp_path_factory, document), "--p", p])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR, cli.EXIT_UNSUPPORTED)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    spec_documents,
    hst.sampled_from(("-1", "0.2", "1.5")),
    hst.sampled_from(([], ["--omega", "1"], ["--omega", "1,2"], ["--omega", "0.5,1,2"])),
    hst.integers(-1, 20),
)
def test_capacity_exit_code_is_total(tmp_path_factory, document, energy, omega, budget):
    argv = ["capacity", "--channel", _spec_file(tmp_path_factory, document), f"--energy={energy}", *omega]
    code = _run_and_check_streams(argv + [f"--budget={budget}"])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    hst.sampled_from(tuple(cli.VERIFY_TARGETS)),
    hst.fixed_dictionaries(
        {
            "--trials": hst.integers(-1, 30),
            "--instances": hst.integers(-1, 3),
            "--max-modes": hst.integers(-1, 3),
            "--budget": hst.integers(-1, 20),
            "--energy": hst.sampled_from((-1.0, 0.0, 0.2, 3.0)),
            "--seed": hst.integers(-1, 3),
        }
    ),
    hst.sampled_from(([], ["--tol=-1e6"])),
    hst.sampled_from(("json", "csv")),
)
def test_verify_exit_code_is_total(target, options, tol, fmt):
    argv = ["verify", target, *(f"{name}={value}" for name, value in options.items()), *tol, "--format", fmt]
    code = _run_and_check_streams(argv, json_report=fmt == "json")
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_INPUT_ERROR)
