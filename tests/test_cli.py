"""CLI surface: file formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matlen
from matlen.certificates import BoundEntry, BoundLedger
from matlen.cli import _admissible_params, main
from matlen.errors import FamilyHypothesisViolated, ParseError
from matlen.length import LengthReport
from matlen.reports import collect_violations, parse_instance, report_to_csv

FIXTURES = Path(__file__).parent / "fixtures"


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def units_instance():
    return {
        "schema": 1,
        "p": 101,
        "n": 2,
        "matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
    }


class TestParsing:
    def test_non_square_row_names_indices(self):
        obj = units_instance()
        obj["matrices"][0][1] = [0, 0, 0]
        with pytest.raises(ParseError, match="matrix 0 row 1"):
            parse_instance(obj)

    def test_entry_out_of_range_not_reduced(self):
        obj = units_instance()
        obj["matrices"][1][0][0] = 101
        with pytest.raises(ParseError, match=r"outside \[0, 101\)"):
            parse_instance(obj)

    def test_unknown_schema(self):
        obj = units_instance()
        obj["schema"] = 2
        with pytest.raises(ParseError):
            parse_instance(obj)

    def test_missing_key(self):
        obj = units_instance()
        del obj["p"]
        with pytest.raises(ParseError, match="'p'"):
            parse_instance(obj)


class TestExitCodes:
    def test_malformed_input_is_usage_error(self, tmp_path):
        obj = units_instance()
        obj["matrices"][0][1] = [0, 0, 0]
        assert main(["length", "--input", write_instance(tmp_path, obj)]) == 2

    def test_non_prime_modulus(self, tmp_path):
        obj = {"schema": 1, "p": 10, "n": 1, "matrices": [[[1]]]}
        assert main(["length", "--input", write_instance(tmp_path, obj)]) == 2

    def test_boolean_order_is_usage_error(self, tmp_path):
        obj = {"schema": 1, "p": 7, "n": True, "matrices": [[[3]], [[2]]]}
        with pytest.raises(ParseError, match="n must be a positive integer"):
            parse_instance(obj)
        assert main(["length", "--input", write_instance(tmp_path, obj)]) == 2

    @pytest.mark.parametrize("schema", [True, 1.0, "1", None])
    def test_non_integer_schema_is_usage_error(self, tmp_path, schema):
        obj = {"schema": schema, "p": 7, "n": 1, "matrices": [[[3]]]}
        with pytest.raises(ParseError, match="unsupported instance schema"):
            parse_instance(obj)
        assert main(["length", "--input", write_instance(tmp_path, obj)]) == 2

    def test_modulus_over_cap_is_unsupported(self, tmp_path):
        obj = {"schema": 1, "p": 1048583, "n": 1, "matrices": [[[1]]]}
        assert main(["length", "--input", write_instance(tmp_path, obj)]) == 3

    def test_fuzz_zero_count(self):
        assert main(["fuzz", "--count", "0", "--n", "2"]) == 2

    def test_oracle_check_rejects_large_order(self, tmp_path):
        obj = {
            "schema": 1,
            "p": 101,
            "n": 4,
            "matrices": [[[0] * 4 for _ in range(4)]],
        }
        assert main(["oracle-check", "--input", write_instance(tmp_path, obj)]) == 2

    def test_unknown_family(self):
        assert main(["fuzz", "--count", "1", "--family", "NOPE", "--n", "2"]) == 2

    def test_t12_without_admissible_degree(self):
        assert main(["fuzz", "--count", "1", "--family", "T12", "--n", "2"]) == 3

    def test_oracle_check_without_orders(self):
        assert main(["oracle-check", "--count", "1", "--n", ""]) == 2
        # fuzz rejects an empty order or family list the same way.
        assert main(["fuzz", "--count", "1", "--n", ""]) == 2
        for families in (",", ""):
            assert main(["fuzz", "--count", "1", "--family", families, "--n", "2"]) == 2

    @pytest.mark.parametrize("command", ["fuzz", "oracle-check"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n", "2", "--seed", "-1"], "error: --seed must be non-negative, got -1"),
            (["--n", "-2"], "error: --n orders must be at least 1, got -2"),
            (["--n", "0"], "error: --n orders must be at least 1, got 0"),
            (["--n", "2,0,3"], "error: --n orders must be at least 1, got 0"),
        ],
    )
    def test_errors_name_the_option(self, capsys, command, extra, message):
        assert main([command, "--count", "1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, target):
        out = tmp_path / "absent" / "x.json" if target == "missing-dir" else tmp_path
        args = ["length", "--input", write_instance(tmp_path, units_instance()), "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def paper_degrees(family, n):
    """Minimal-polynomial degrees each family admits at order n, from the paper's conditions."""
    if family == "T10":
        return list(range(n // 2 + 1, n + 1)) if n % 2 == 0 else []
    if family == "T11":
        return list(range((n + 1) // 2, n + 1)) if n % 2 == 1 and n >= 3 else []
    if family == "T12":
        return [t for t in range(2, n + 1) if 2 * t <= n <= 3 * t - 1]
    return [n // 2] if n % 2 == 0 and n >= 4 else []  # THM39


@pytest.mark.parametrize("family", ["T10", "T11", "T12", "THM39"])
def test_admissible_params_follow_the_paper(family):
    for n in range(1, 17):
        expected = paper_degrees(family, n)
        if expected:
            assert _admissible_params(family, n) == expected, n
        else:
            with pytest.raises(FamilyHypothesisViolated):
                _admissible_params(family, n)


class TestModuleEntryPoint:
    def run_module(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(matlen.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "matlen.cli", *args], capture_output=True, env=env, check=False
        )

    def test_analyze_writes_the_report_of_main(self, capsys):
        args = ["analyze", "--input", str(FIXTURES / "t10_n4.json")]
        assert main(args) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        proc = self.run_module(*args)
        assert proc.returncode == 0
        assert proc.stdout == expected and expected

    def test_missing_input_exits_2(self, tmp_path):
        proc = self.run_module("analyze", "--input", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_repeated_calls_in_one_process_match_fresh_processes(self, capsys):
        # main reuses one parser per process; each call must still give the
        # bytes and exit code of a fresh interpreter, a usage error included.
        calls = [
            ["analyze", "--input", str(FIXTURES / "t10_n4.json")],
            ["length", "--input", str(FIXTURES / "t12_n4.json")],
            ["length", "--max-level", "2"],
            ["analyze", "--input", str(FIXTURES / "t10_n4.json")],
        ]
        codes = []
        for args in calls:
            codes.append(main(args))
            captured = capsys.readouterr()
            proc = self.run_module(*args)
            assert codes[-1] == proc.returncode
            assert captured.out.encode("utf-8") == proc.stdout
            assert captured.err.encode("utf-8") == proc.stderr
        assert codes == [0, 0, 2, 0]


class TestLengthCommand:
    def test_units_pair(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["length", "--input", write_instance(tmp_path, units_instance()), "--out", str(out)])
        assert rc == 0
        body = json.loads(out.read_text())
        rep = body["instances"][0]["length_report"]
        assert rep["dims"] == [1, 3, 4] and rep["length"] == 2

    def test_identity_not_generating(self, tmp_path):
        obj = {"schema": 1, "p": 101, "n": 2, "matrices": [[[1, 0], [0, 1]]]}
        out = tmp_path / "report.json"
        rc = main(["length", "--input", write_instance(tmp_path, obj), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())["instances"][0]["length_report"]
        assert rep["is_generating"] is False and rep["generated_dim"] == 1


class TestAnalyzeCommand:
    def test_golden_t10(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(FIXTURES / "t10_n4.json"), "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())["instances"][0]
        assert record["m_S"] == 3
        entries = {e["name"]: e for e in record["ledger"]}
        assert entries["minpoly_above_half"]["applicable"]
        assert entries["minpoly_above_half"]["bound_value"] == 7
        cert = record["certificates"]["0"]["1"]
        assert cert["achieved_rank"] == 1 and cert["degree"] == 2

    def test_golden_t12(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(FIXTURES / "t12_n4.json"), "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())["instances"][0]
        entries = {e["name"]: e for e in record["ledger"]}
        assert entries["minpoly_window"]["bound_value"] == 10
        assert entries["double_jordan_block"]["bound_value"] == 8
        assert entries["double_jordan_block"]["applicable"]
        cert = record["certificates"]["0"]["2"]
        assert cert["achieved_rank"] == 2 and cert["degree"] == 1

    @pytest.mark.parametrize("name", ["t10_n10_p1048573", "nonsplit_p1048573"])
    def test_golden_large_field_report_bytes(self, name, tmp_path, monkeypatch):
        # Over F_1048573 split_roots takes its algebraic path; the expected
        # reports were written by the exhaustive scan. The input path is part
        # of the report, so it is given relative to the fixtures directory.
        monkeypatch.chdir(FIXTURES)
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", f"{name}.json", "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / f"{name}.analyze.json").read_bytes()

    def test_nonsplit_is_warning_not_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(FIXTURES / "nonsplit_f7.json"), "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())["instances"][0]
        assert any("non-split" in w for w in record["warnings"])
        assert "not_split" in record["generators"][0]


class TestVerifyCommand:
    def test_goldens_pass(self, tmp_path):
        for fixture in ("t10_n4.json", "t12_n4.json"):
            out = tmp_path / "report.json"
            rc = main(["verify", "--input", str(FIXTURES / fixture), "--out", str(out)])
            assert rc == 0
            body = json.loads(out.read_text())
            assert body["summary"]["violation_count"] == 0

    def test_tampered_ledger_detected(self):
        # Self-test: forcing a bound to zero must register as a violation.
        ledger = BoundLedger(
            entries=(BoundEntry("paz_general", 0, True, "tampered"),)
        )
        rep = LengthReport(n=2, dims=(1, 3, 4))
        violations = collect_violations(ledger, rep)
        assert violations == [{"bound": "paz_general", "bound_value": 0, "length": 2}]

    def test_violation_exit_code_wiring(self, tmp_path, monkeypatch):
        import matlen.cli as cli_mod

        def forged(gs, rep):
            return {
                "n": gs.n,
                "p": gs.field.p,
                "length_report": {"length": 2},
                "ledger": [],
                "violations": [{"bound": "forged", "bound_value": 0, "length": 2}],
                "flags": [],
            }

        monkeypatch.setattr(cli_mod.reports, "evaluate_instance", forged)
        rc = main(["verify", "--input", str(FIXTURES / "t10_n4.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 1


class TestOracleCheckCommand:
    def test_units_pair_file(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["oracle-check", "--input", write_instance(tmp_path, units_instance()), "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())["instances"][0]
        assert record["length_report"]["dims"] == [1, 3, 4]
        assert record["oracle_report"] == record["length_report"]

    def test_generated_instances(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["oracle-check", "--count", "5", "--n", "2,3", "--seed", "3", "--out", str(out)])
        assert rc == 0
        body = json.loads(out.read_text())
        assert body["summary"]["instances"] == 10
        assert body["summary"]["violation_count"] == 0


class TestFuzzCommand:
    def test_repeated_output_is_byte_identical(self, tmp_path):
        args = ["fuzz", "--count", "6", "--family", "RANDOM,T10", "--n", "4", "--seed", "5"]
        outs = []
        for run in range(3):
            out = tmp_path / f"report_{run}.json"
            rc = main(args + ["--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed3_campaign_report_is_pinned(self, tmp_path):
        # Byte-identity gate for every engine change: the sha256 of this
        # campaign's report as the full-row span engine wrote it.
        out = tmp_path / "report.json"
        args = ["fuzz", "--family", "RANDOM,T10,T12,THM39", "--n", "4,6,8,10", "--p", "101",
                "--count", "15", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "7cb16a4d9a560510656ba7f1199750adc7a244be9df05ce78bdd13ca677ca945"

    def test_jobs_flag_is_gone(self, tmp_path):
        args = ["fuzz", "--count", "1", "--n", "3", "--jobs", "2", "--out", str(tmp_path / "r.json")]
        assert main(args) == 2

    def test_length_once_per_instance_and_one_search_per_generator(self, tmp_path, monkeypatch):
        import matlen.certificates
        import matlen.cli
        import matlen.instances
        import matlen.length
        import matlen.reports

        calls = {"compute_length": 0, "find_rank_reduction": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name, real in (
            ("compute_length", matlen.length.compute_length),
            ("find_rank_reduction", matlen.certificates.find_rank_reduction),
        ):
            wrapper = counting(name, real)
            for mod in (matlen.certificates, matlen.cli, matlen.instances, matlen.reports):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, wrapper)
        out = tmp_path / "report.json"
        args = ["fuzz", "--family", "RANDOM,T10,T12,THM39", "--n", "4", "--count", "6", "--out", str(out)]
        assert main(args) == 0
        body = json.loads(out.read_text())
        summary = body["summary"]
        split = sum(
            "spectrum" in g for r in body["instances"] for g in r.get("generators", ())
        )
        assert summary["evaluated"] == 24
        assert calls["compute_length"] == summary["instances"] + summary["generation_retries"]
        assert calls["find_rank_reduction"] == split

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(
            ["fuzz", "--count", "3", "--family", "T10", "--n", "4", "--seed", "5", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,family,n,p,seed,m_S,length,tightest_applicable_bound,violation"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "T10" for line in lines[1:])

    def test_skipped_instances_are_records_not_failures(self, tmp_path, monkeypatch):
        import matlen.cli as cli_mod

        real = cli_mod.build_instance_with_meta

        def flaky(spec):
            from matlen.errors import GenerationRetriesExhausted

            raise GenerationRetriesExhausted("synthetic failure")

        monkeypatch.setattr(cli_mod, "build_instance_with_meta", flaky)
        out = tmp_path / "report.json"
        rc = main(["fuzz", "--count", "2", "--family", "T10", "--n", "4", "--seed", "5", "--out", str(out)])
        assert rc == 0
        body = json.loads(out.read_text())
        assert body["summary"]["skipped"] == 2
        monkeypatch.setattr(cli_mod, "build_instance_with_meta", real)


class TestCsvHelper:
    def test_violation_column_lists_bounds(self):
        report = {
            "instances": [
                {
                    "index": 0,
                    "family": "RANDOM",
                    "n": 2,
                    "p": 101,
                    "seed": 7,
                    "m_S": 2,
                    "ledger": [
                        {"name": "paz_general", "bound_value": 2, "applicable": True},
                        {"name": "other", "bound_value": 9, "applicable": False},
                    ],
                    "length_report": {"length": 3},
                    "violations": [{"bound": "paz_general", "bound_value": 2, "length": 3}],
                }
            ]
        }
        lines = report_to_csv(report).splitlines()
        assert lines[1] == "0,RANDOM,2,101,7,2,3,2,paz_general"
