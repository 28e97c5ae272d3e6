"""CLI surface: file formats, exit codes, determinism."""

import errno
import functools
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import matlen.cli
import matlen.errors
import matlen.instances
import matlen.reports
from matlen.certificates import BoundEntry, BoundLedger
from matlen.cli import main
from matlen.errors import (
    BudgetExceeded,
    GenerationRetriesExhausted,
    MatlenError,
    NotSplit,
    ParseError,
)
from matlen.length import LengthReport
from matlen.reports import collect_violations, csv_lines, parse_instance

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

    # The per-entry loop is the only check on a matrix: it names the first
    # bad row or entry, in matrix, row and column order.
    @pytest.mark.parametrize(
        "edits, message",
        [
            ({(1, 1): [0, True]}, "matrix 1 entry (1,1) is not an integer"),
            ({(1, 1): [0, 1.0]}, "matrix 1 entry (1,1) is not an integer"),
            ({(1, 1): [0, None]}, "matrix 1 entry (1,1) is not an integer"),
            ({(1, 1): [0, "1"]}, "matrix 1 entry (1,1) is not an integer"),
            ({(1, 1): [0, [1]]}, "matrix 1 entry (1,1) is not an integer"),
            ({(1, 1): [0, -1]}, "matrix 1 entry (1,1) = -1 outside [0, 101)"),
            ({(1, 1): [0, 101]}, "matrix 1 entry (1,1) = 101 outside [0, 101)"),
            ({(1, 1): [0, 2**70]}, f"matrix 1 entry (1,1) = {2**70} outside [0, 101)"),
            ({(1, 1): [1.0, -1]}, "matrix 1 entry (1,0) is not an integer"),
            ({(0, 1): [0, -1], (1, 0): [0.5, 0]}, "matrix 0 entry (1,1) = -1 outside [0, 101)"),
            ({(1, 1): [0]}, "matrix 1 row 1 has 1 entries, expected 2"),
            ({(1, 1): (0, 0)}, "matrix 1 row 1 has no entries, expected 2"),
        ],
        ids=[
            "bool", "float", "none", "string", "list", "negative", "p", "huge",
            "first-of-two", "first-matrix", "short-row", "tuple-row",
        ],
    )
    def test_bad_entry_named(self, edits, message):
        obj = units_instance()
        for (mi, ri), row in edits.items():
            obj["matrices"][mi][ri] = row
        with pytest.raises(ParseError) as info:
            parse_instance(obj)
        assert str(info.value) == message


# Each error's exit code and stderr label, as `main` mapped them when it
# listed the unsupported types by hand; `Unsupported` is their common base.
ERROR_EXITS = {
    "MatlenError": (2, "error"),
    "DimensionMismatch": (2, "error"),
    "FieldMismatch": (2, "error"),
    "NotPrime": (2, "error"),
    "ModulusTooLarge": (3, "unsupported instance"),
    "AccumulatorOverflow": (2, "error"),
    "Singular": (2, "error"),
    "NotSplit": (3, "unsupported instance"),
    "CharPolyNotSplit": (3, "unsupported instance"),
    "CertificateMismatch": (2, "error"),
    "EmptySet": (2, "error"),
    "BudgetExceeded": (2, "error"),
    "InvalidK": (2, "error"),
    "SizeMismatch": (3, "unsupported instance"),
    "FamilyHypothesisViolated": (3, "unsupported instance"),
    "GenerationRetriesExhausted": (3, "unsupported instance"),
    "ParseError": (2, "error"),
    "Unsupported": (3, "unsupported instance"),
}


class TestExitCodes:
    def test_every_error_class_is_in_the_table(self):
        classes = {
            name
            for name, obj in vars(matlen.errors).items()
            if isinstance(obj, type) and issubclass(obj, MatlenError)
        }
        assert classes == set(ERROR_EXITS)

    @pytest.mark.parametrize("name", sorted(ERROR_EXITS))
    def test_error_class_carries_its_exit(self, capsys, monkeypatch, name):
        exc_type = getattr(matlen.errors, name)
        code, label = ERROR_EXITS[name]
        assert (exc_type.exit_code, exc_type.label) == (code, label)

        def fail(path):
            raise exc_type("synthetic failure")

        monkeypatch.setattr(matlen.reports, "load_instance", fail)
        assert main(["length", "--input", "inst.json"]) == code
        assert capsys.readouterr().err == f"{label}: synthetic failure\n"

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff", "codec can't decode byte 0xff"),
            (b'{"schema": 1, "p": 101, "n": 1, "matrices": [[[' + b"9" * 5000 + b"]]]}", "digits"),
        ],
        ids=["not-utf8", "5000-digit-entry"],
    )
    def test_undecodable_file_is_usage_error(self, tmp_path, capsys, data, message):
        # json.load raises a plain ValueError for these, not a JSONDecodeError.
        path = tmp_path / "inst.json"
        path.write_bytes(data)
        assert main(["length", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        if message == "digits" and not hasattr(sys, "get_int_max_str_digits"):
            # An interpreter without the digit limit parses the entry.
            assert err.startswith("error: matrix 0 entry (0,0) = 9")
        else:
            assert err.startswith(f"error: malformed JSON in {path}: ") and message in err

    def test_oracle_check_rejects_many_generators(self, tmp_path, capsys):
        obj = {"schema": 1, "p": 101, "n": 2, "matrices": [[[i, 0], [0, 0]] for i in range(4)]}
        assert main(["oracle-check", "--input", write_instance(tmp_path, obj)]) == 2
        assert capsys.readouterr().err == "error: oracle-check supports at most 3 generators, got 4\n"

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_full_device_is_usage_error(self, capsys, monkeypatch, fmt):
        # The JSON report of this campaign (0.7 MB) reaches the file in several
        # chunks and fails at the first one the buffer flushes, part-way
        # through the campaign; the 4 KB CSV fails when the file is closed.
        # The records are kept alive past `main`, so the workers must be
        # joined by `main` itself, not when the records are collected.
        kept = []
        make_report = matlen.reports.make_report

        def keeping(command, config, instances, summary):
            kept.append(instances)
            return make_report(command, config, instances, summary)

        monkeypatch.setattr(matlen.reports, "make_report", keeping)
        monkeypatch.setattr(matlen.cli, "_fuzz_workers", lambda tasks: 2)
        args = ["fuzz", "--count", "25", "--family", "RANDOM,T10,T12,THM39", "--n", "4",
                "--format", fmt, "--out", "/dev/full"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write /dev/full: No space left on device\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "extra, code",
        [(["--count", "0"], 2), (["--family", "NOPE"], 2), (["--family", "T12", "--n", "2"], 3), (["--p", "100"], 2)],
        ids=["zero-count", "unknown-family", "no-admissible-degree", "composite-p"],
    )
    def test_fuzz_usage_errors_precede_the_report_and_the_workers(self, tmp_path, monkeypatch, extra, code):
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker may start")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", no_pool)
        monkeypatch.setattr(matlen.cli, "_fuzz_workers", lambda tasks: 2)
        out = tmp_path / "report.json"
        args = ["fuzz", "--count", "2", "--n", "4", *extra, "--out", str(out)]
        assert main(args) == code
        assert not out.exists()

    def test_fork_failure_is_not_a_write_error(self, tmp_path, monkeypatch):
        def no_fork(*args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", no_fork)
        monkeypatch.setattr(matlen.cli, "_fuzz_workers", lambda tasks: 2)
        with pytest.raises(BlockingIOError):
            main(["fuzz", "--count", "2", "--n", "4", "--out", str(tmp_path / "report.json")])

    @pytest.mark.parametrize(
        "args",
        [
            ["length", "--input", str(FIXTURES / "t10_n4.json")],
            ["oracle-check", "--input", str(FIXTURES / "nonsplit_f7.json")],
            ["oracle-check", "--count", "2", "--n", "2"],
        ],
    )
    def test_negative_max_level_is_rejected_before_any_work(self, capsys, monkeypatch, args):
        def no_work(*args, **kwargs):
            raise AssertionError("no set may be drawn or measured")

        for name in ("compute_length", "random_generating_set", "brute_force_length"):
            monkeypatch.setattr(matlen.cli, name, no_work)
        assert main([*args, "--max-level", "-1"]) == 2
        assert capsys.readouterr().err == "error: --max-level must be non-negative, got -1\n"


# Every command's stdout bytes, exit code and stderr, as the parent of the
# one-pipeline `main` wrote them. Inputs are named relative to the fixtures
# directory because the input path is part of the report; {tmp} stands for
# the test's temporary directory.
PINNED_FIXTURES = ["nonsplit_f7", "nonsplit_p1048573", "t10_n10_p1048573", "t10_n4", "t12_n4"]
PINNED_ARGV = {
    f"{command}-{fmt}-{name}": [command, "--input", f"{name}.json", "--format", fmt]
    for command in ("length", "analyze", "verify", "oracle-check")
    for fmt in ("json", "csv")
    for name in PINNED_FIXTURES
}
PINNED_ARGV.update(
    {
        "oracle-check-generated": ["oracle-check", "--count", "30", "--n", "2,3", "--seed", "1"],
        "oracle-check-large-order": ["oracle-check", "--count", "2", "--n", "4"],
        "fuzz-zero-count": ["fuzz", "--count", "0", "--n", "4"],
        "fuzz-composite-p": ["fuzz", "--count", "2", "--n", "4", "--p", "100"],
        "length-unwritable-out": ["length", "--input", "nonsplit_f7.json", "--out", "{tmp}/absent/x.json"],
        "analyze-unwritable-out": ["analyze", "--input", "nonsplit_f7.json", "--out", "{tmp}/absent/x.json"],
        "length-negative-max-level": ["length", "--input", "t10_n4.json", "--max-level", "-1"],
        "oracle-check-negative-max-level": ["oracle-check", "--count", "2", "--n", "2", "--max-level", "-1"],
    }
)
EMPTY = hashlib.sha256(b"").hexdigest()
NONSPLIT_WARNING = "warning: non-split spectrum; some ledger rows are undecidable\n"
PINS = {
    "length-json-nonsplit_f7": ("508d489f63b33e82d917758f0ed5a5a122166a3f47d04f793b495d741f902239", 0, ""),
    "length-json-nonsplit_p1048573": ("b563af4015e1ce0b7ba0aadf941c0bcd1f340fac518abad5f993809cff423d80", 0, ""),
    "length-json-t10_n10_p1048573": ("995408d221fd6eb9dfa7bc56cfb131a36b24e3ae71e30296796a40bfa5927753", 0, ""),
    "length-json-t10_n4": ("a3154c1ba459b1e7a990ece4e7e9261b480fdf848b0f9ae504cb3364163ed657", 0, ""),
    "length-json-t12_n4": ("e5cfccce4cb95ca01b6ee40b54464818be307a3c651faef97137364ecf0b9706", 0, ""),
    "length-csv-nonsplit_f7": ("aeb79c66b339175283fc50a2ffc7cc94f95380349845fae4069be19960604d60", 0, ""),
    "length-csv-nonsplit_p1048573": ("e0064339c803dff05d5903bf0105927c71b1178c5311430083742a81553207fc", 0, ""),
    "length-csv-t10_n10_p1048573": ("70f22addb7d7163e6c821dbde91b7bbed13e165a546296c98af12d3ec46b588c", 0, ""),
    "length-csv-t10_n4": ("3e7c506a03f93f3422e25555c7ac1d2a67b52ae93149731e41fa37561582c32e", 0, ""),
    "length-csv-t12_n4": ("513d6b210fb764a2849fcc059fb20c22cc70cd407a453c9611719ce68c22be5a", 0, ""),
    "analyze-json-nonsplit_f7": ("7a238064409711fa7f19a09f5491ffdba1d8c30cb6608ba35a91a9d38b77ec7f", 0, NONSPLIT_WARNING),
    "analyze-json-nonsplit_p1048573": ("49085584081b693130b99bb52341d1ce3a6c447a423f5268219d0f706032a959", 0, NONSPLIT_WARNING),
    "analyze-json-t10_n10_p1048573": ("4c08d2e1ef7904aad606858f15a439b81631c65db0852eff6aeebc05629e415c", 0, ""),
    "analyze-json-t10_n4": ("93d5f2bd9970d282455f5276aa6bbf9ba9396acbfca22cfb847a32d050aec80e", 0, ""),
    "analyze-json-t12_n4": ("762ccf0829f256e96a0fd68b5a2140dac65b0875948af63201e0cac541a9360c", 0, ""),
    "analyze-csv-nonsplit_f7": ("7d68b265653a9f6601480a55ca1522688c607a558942fa0df9a65c7f3a65d588", 0, NONSPLIT_WARNING),
    "analyze-csv-nonsplit_p1048573": ("b0f761a3f7281aebb7245c05fc14a98160524b3977e417f5d70a9dbaf716c806", 0, NONSPLIT_WARNING),
    "analyze-csv-t10_n10_p1048573": ("a05ba40c5f870502834da7ddae2d71cc54714d66b224d7a43d99c9cfac0963ad", 0, ""),
    "analyze-csv-t10_n4": ("0fb7bdcc3dc73a14eefb75a33bf9cc3c07fe0523b8dcd3e8477592ec89a87b2b", 0, ""),
    "analyze-csv-t12_n4": ("146bee0007aea89fe6873f2d3200aa1ab37cc93cb7bbaa6c9bda6c888d1b2046", 0, ""),
    "verify-json-nonsplit_f7": ("d9751e4035b81d0099129f7f3483e874703dc0b67790c80b74df29f1283a45fb", 0, ""),
    "verify-json-nonsplit_p1048573": ("989b30de856f7369fdd71c52331405feec53ef8ab05b2899b2e5ffef50a3d4f9", 0, ""),
    "verify-json-t10_n10_p1048573": ("4865489819bd98040dfb98039f719548ad8e3e22e851f9028fe7225d4f6bfbc8", 0, ""),
    "verify-json-t10_n4": ("d551452f43e497f77e8a11e89839720b287d52378936d57b26e7a48e767232cb", 0, ""),
    "verify-json-t12_n4": ("722dffbccfa82d7b8fe694a3160aaada52c7fb5073eb1cb2a969810286f56833", 0, ""),
    "verify-csv-nonsplit_f7": ("176fe1a9a1eaef152ba5c76a739b8d567646ac1b2b4d9e90c9f249897db54320", 0, ""),
    "verify-csv-nonsplit_p1048573": ("62bacc3ad538ab1b871cf507e76c88a7f179385bc210878db13b67fff53be2aa", 0, ""),
    "verify-csv-t10_n10_p1048573": ("d4d01a0c57a835e30425f631111ecccf921b2f4c847127f87038f82870a348ba", 0, ""),
    "verify-csv-t10_n4": ("40e38f122a81758ce95d69ed707196f64d45cf4b36044f30efe8749c7fd09fe7", 0, ""),
    "verify-csv-t12_n4": ("64508108be827d6b093ec764e9bd9ed914a43df71e6c39c9770c146c7e654426", 0, ""),
    "oracle-check-json-nonsplit_f7": ("832f6ba76809d225a412f29a870ba1bd59836c78150681192ea58b262f71289d", 0, ""),
    "oracle-check-json-nonsplit_p1048573": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-json-t10_n10_p1048573": (EMPTY, 2, "error: oracle-check supports n <= 3, got 10\n"),
    "oracle-check-json-t10_n4": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-json-t12_n4": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-csv-nonsplit_f7": ("aeb79c66b339175283fc50a2ffc7cc94f95380349845fae4069be19960604d60", 0, ""),
    "oracle-check-csv-nonsplit_p1048573": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-csv-t10_n10_p1048573": (EMPTY, 2, "error: oracle-check supports n <= 3, got 10\n"),
    "oracle-check-csv-t10_n4": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-csv-t12_n4": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "oracle-check-generated": ("a8ef55687fbdd16fbde73dcbe08459fe48a97c14ec27cb66a9fdfc0c95570f9b", 0, ""),
    "oracle-check-large-order": (EMPTY, 2, "error: oracle-check supports n <= 3, got 4\n"),
    "fuzz-zero-count": (EMPTY, 2, "error: count must be at least 1, got 0\n"),
    "fuzz-composite-p": (EMPTY, 2, "error: modulus 100 is not a prime number\n"),
    "length-unwritable-out": (EMPTY, 2, "error: cannot write {tmp}/absent/x.json: No such file or directory\n"),
    "analyze-unwritable-out": (EMPTY, 2, "error: cannot write {tmp}/absent/x.json: No such file or directory\n"),
    "length-negative-max-level": (EMPTY, 2, "error: --max-level must be non-negative, got -1\n"),
    "oracle-check-negative-max-level": (EMPTY, 2, "error: --max-level must be non-negative, got -1\n"),
}


# Each case as main writes it, and again with the JSON report handed to stdout
# in chunks at nearly every list element.
@pytest.mark.parametrize(
    "case, fragments",
    [pytest.param(case, None, id=case) for case in PINNED_ARGV]
    + [pytest.param(case, 1, id=f"{case}-chunked") for case in PINNED_ARGV],
)
def test_command_output_is_pinned(case, fragments, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    if fragments is not None:
        monkeypatch.setattr(matlen.reports, "WRITE_FRAGMENTS", fragments)
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in PINNED_ARGV[case]])
    captured = capsys.readouterr()
    digest, expected_code, expected_err = PINS[case]
    assert (hashlib.sha256(captured.out.encode("utf-8")).hexdigest(), code) == (digest, expected_code)
    assert captured.err == expected_err.replace("{tmp}", str(tmp_path))


def test_the_benchmark_reaches_the_recipe_through_cli():
    assert matlen.cli.derive_instance_spec is matlen.instances.derive_instance_spec


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

    def test_closed_stdout_is_a_write_error(self):
        # A 0.25 MB report, well over a 64 KB pipe buffer: the reader takes
        # 100 bytes and goes, as `| head -c 100` does. A failed write to
        # stdout is a write error like an unwritable --out, not a traceback.
        env = dict(os.environ, PYTHONPATH=str(Path(matlen.__file__).parents[1]))
        args = ["fuzz", "--count", "10", "--n", "4,6", "--family", "RANDOM,T10"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "matlen.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (2, b"error: cannot write stdout: Broken pipe\n")


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
        # The counters live in this process: run the campaign here, not in workers.
        monkeypatch.setattr(matlen.cli, "_fuzz_workers", lambda tasks: 1)
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


def patch_build(monkeypatch, exc_type, fails):
    """Make instance generation raise exc_type, naming the spec's seed, wherever fails(spec)."""
    import matlen.cli as cli_mod

    real = cli_mod.build_instance_with_meta

    def build(spec):
        if fails(spec):
            raise exc_type(f"synthetic failure at seed {spec.seed}")
        return real(spec)

    monkeypatch.setattr(cli_mod, "build_instance_with_meta", build)


class TestFuzzWorkers:
    """The worker pool against the serial path: same bytes, exit code and stderr."""

    def run(self, monkeypatch, capsys, tmp_path, args, workers):
        import matlen.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_fuzz_workers", lambda tasks: workers)
        out = tmp_path / f"report_{workers}.json"
        rc = main(["fuzz", *args, "--out", str(out)])
        assert multiprocessing.active_children() == []
        report = out.read_bytes() if out.exists() else None
        return rc, report, capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, skip_odd",
        [
            # The campaign of test_seed3_campaign_report_is_pinned.
            (["--family", "RANDOM,T10,T12,THM39", "--n", "4,6,8,10", "--p", "101",
              "--count", "15", "--seed", "3"], False),
            # Exhausted retries are caught inside the workers and become records.
            (["--family", "RANDOM,T10", "--n", "4,6", "--count", "5", "--seed", "2"], True),
            (["--family", "T11", "--n", "5,7", "--p", "1048573", "--count", "4", "--seed", "1"], False),
        ],
        ids=["seed3-pinned", "skipped", "t11-wide-field"],
    )
    def test_pool_report_is_byte_identical_to_serial(self, monkeypatch, capsys, tmp_path, args, skip_odd):
        if skip_odd:
            patch_build(monkeypatch, GenerationRetriesExhausted, lambda spec: spec.seed % 2)
        serial = self.run(monkeypatch, capsys, tmp_path, args, 1)
        pooled = self.run(monkeypatch, capsys, tmp_path, args, 2)
        assert serial[0] == 0 and serial[1]
        assert pooled == serial
        summary = json.loads(serial[1])["summary"]
        assert (0 < summary["skipped"] < summary["instances"]) == skip_odd

    @pytest.mark.parametrize(
        "exc_type, code, prefix",
        [(BudgetExceeded, 2, "error"), (NotSplit, 3, "unsupported instance")],
        ids=["budget", "not-split"],
    )
    def test_worker_error_matches_serial(self, monkeypatch, capsys, tmp_path, exc_type, code, prefix):
        # Every non-RANDOM instance fails, each with its own message: the
        # error reported is the first in campaign order, on either path, even
        # when a worker raises a later one sooner.
        def fails(spec):
            if spec.family == "T10":
                time.sleep(0.1)
            return spec.family != "RANDOM"

        patch_build(monkeypatch, exc_type, fails)
        args = ["--family", "RANDOM,T10,T12", "--n", "4", "--count", "3", "--seed", "4"]
        serial = self.run(monkeypatch, capsys, tmp_path, args, 1)
        pooled = self.run(monkeypatch, capsys, tmp_path, args, 3)
        # The report is opened before the first instance is built and
        # streamed: a campaign that fails part-way leaves a partial one.
        assert serial[0] == code and b'"summary"' not in serial[1]
        assert serial[2].startswith(f"{prefix}: synthetic failure at seed ")
        assert pooled == serial

    def test_error_mid_stream_matches_serial(self, monkeypatch, capsys, tmp_path):
        # Instance 5 fails. The report goes out a chunk at nearly every list
        # element, so each path leaves a prefix of the full report behind,
        # holding records up to 3 at least. The pool receives a chunk of
        # FUZZ_CHUNK instances whole or not at all, so its workers hand the
        # error back as a value after records 0-4, as the serial path
        # writes them: the partial reports are the same bytes.
        args = ["--family", "RANDOM", "--n", "4", "--count", "8", "--seed", "6"]
        full = self.run(monkeypatch, capsys, tmp_path, args, 1)[1]
        real = matlen.cli._fuzz_one

        @functools.wraps(real)  # a pool mapping it would pickle it by name, as matlen.cli._fuzz_one
        def fuzz_one(task):
            if task[-1] == 5:
                raise MatlenError(f"synthetic failure at instance {task[-1]}")
            return real(task)

        monkeypatch.setattr(matlen.cli, "_fuzz_one", fuzz_one)
        monkeypatch.setattr(matlen.reports, "WRITE_FRAGMENTS", 1)
        serial = self.run(monkeypatch, capsys, tmp_path, args, 1)
        pooled = self.run(monkeypatch, capsys, tmp_path, args, 2)
        assert serial[0] == 2 and serial[2] == "error: synthetic failure at instance 5\n"
        assert pooled == serial
        assert b'"index": 3' in serial[1]
        for partial in (serial[1], pooled[1]):
            assert full.startswith(partial) and b'"summary"' not in partial

    def test_csv_error_mid_stream_matches_serial(self, monkeypatch, capsys, tmp_path):
        # The CSV goes out a line per record: when instance 5 fails, either
        # path leaves the header and the lines of records 0-4 behind.
        args = ["--family", "RANDOM", "--n", "4", "--count", "8", "--seed", "6", "--format", "csv"]
        full = self.run(monkeypatch, capsys, tmp_path, args, 1)[1]
        real = matlen.cli._fuzz_one

        @functools.wraps(real)  # a pool mapping it would pickle it by name, as matlen.cli._fuzz_one
        def fuzz_one(task):
            if task[-1] == 5:
                raise MatlenError(f"synthetic failure at instance {task[-1]}")
            return real(task)

        monkeypatch.setattr(matlen.cli, "_fuzz_one", fuzz_one)
        serial = self.run(monkeypatch, capsys, tmp_path, args, 1)
        pooled = self.run(monkeypatch, capsys, tmp_path, args, 2)
        assert serial[0] == 2 and serial[2] == "error: synthetic failure at instance 5\n"
        assert pooled == serial
        assert full.count(b"\n") == 9
        assert serial[1] == b"".join(full.splitlines(keepends=True)[:6])

    def test_one_worker_per_chunk(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        assert matlen.cli.FUZZ_CHUNK == 8
        assert matlen.cli._fuzz_workers(8) == 1
        assert matlen.cli._fuzz_workers(9) == min(cpus, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_are_drawn_lazily(self, monkeypatch, workers):
        # 100000 task tuples held at once take about 12 MB; drawn as the
        # records are, the campaign's first record costs at most a few
        # hundred KB.
        # A one-instance campaign first warms the caches the first record fills.
        monkeypatch.setattr(matlen.cli, "_fuzz_workers", lambda tasks: workers)
        parse = matlen.cli.build_parser().parse_args
        list(matlen.cli.cmd_fuzz(parse(["fuzz", "--count", "1", "--n", "4"]))[1])
        records = None
        tracemalloc.start()
        try:
            _, records = matlen.cli.cmd_fuzz(parse(["fuzz", "--count", "100000", "--n", "4"]))
            assert next(iter(records))["index"] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if hasattr(records, "close"):
                records.close()
        assert multiprocessing.active_children() == []
        assert peak < 1 << 20

    def test_one_chunk_campaign_starts_no_worker(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk campaign must run serially")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", no_pool)
        args = ["fuzz", "--family", "RANDOM,T10", "--n", "4", "--count", "4", "--out", str(tmp_path / "r.json")]
        assert main(args) == 0
        assert multiprocessing.active_children() == []
        assert len(json.loads((tmp_path / "r.json").read_text())["instances"]) == 8

    def test_streamed_summary_matches_the_list_summary(self, tmp_path):
        # The summary written after the streamed seed-3 campaign, against
        # make_report's on the list of its records.
        out = tmp_path / "report.json"
        args = ["fuzz", "--family", "RANDOM,T10,T12,THM39", "--n", "4,6,8,10", "--p", "101",
                "--count", "15", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        body = json.loads(out.read_text())
        listed = matlen.reports.make_report("fuzz", body["config"], body["instances"], matlen.reports.Summary())
        assert body["summary"] == listed["summary"]


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
        lines = "".join(csv_lines(report)).splitlines()
        assert lines[1] == "0,RANDOM,2,101,7,2,3,2,paz_general"
