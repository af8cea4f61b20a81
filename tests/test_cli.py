import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import DATA, SRC, invoke
from virasoro import cli
from virasoro import cohomology as co

VIRASORO_TABLE = DATA / "virasoro_window8.tsv"
SIGN_TABLE = DATA / "sign_window3.tsv"


def json_lines(result):
    return [json.loads(line) for line in result.output.splitlines()]


def parse_text_line(line):
    tokens = shlex.split(line)
    record = {"status": tokens[0], "check_name": tokens[1]}
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        record[key] = value
    return record


class TestVerify:
    @pytest.mark.parametrize("args", [
        ("witt-jacobi", "--max-index", "3"),
        ("cocycle", "--virasoro", "--window", "4"),
        ("extension", "--max-index", "2"),
        ("virasoro-constants", "--max-index", "3"),
        ("heisenberg", "--max-index", "2", "--max-level", "3"),
        ("primary-field", "--max-index", "2", "--max-level", "3"),
        ("normal-pair", "--max-index", "1", "--max-level", "2"),
        ("sugawara", "--max-index", "2", "--max-level", "3"),
        ("verma", "--max-index", "2", "--max-level", "3"),
        ("verma-hw",),
        ("intertwine", "--max-index", "2", "--max-level", "2"),
        ("sum-identity", "--max-index", "6"),
    ])
    def test_every_kind_passes(self, args):
        result = invoke("verify", *args)
        assert result.exit_code == 0, result.output
        for line in result.output.splitlines():
            assert line.startswith("PASS ")

    def test_two_reports_for_extension_and_heisenberg(self):
        assert len(invoke("verify", "extension", "--max-index", "2",
                          "--format", "json").output.splitlines()) == 2
        assert len(invoke("verify", "heisenberg", "--max-index", "2",
                          "--max-level", "2", "--format", "json").output.splitlines()) == 2

    def test_verma_hw_reads_max_index(self):
        result = invoke("verify", "verma-hw", "--max-index", "3")
        assert result.exit_code == 0
        record = parse_text_line(result.output)
        assert (record["max_index"], record["checked_count"]) == ("3", "5")

    def test_failing_input_exits_one(self):
        result = invoke("verify", "cocycle", "--input", str(SIGN_TABLE), "--window", "3")
        assert result.exit_code == 1
        assert result.output.startswith("FAIL cocycle-identity")

    def test_table_verifies_as_cocycle(self):
        result = invoke("verify", "cocycle", "--input", str(VIRASORO_TABLE),
                        "--window", "4", "--format", "json")
        assert result.exit_code == 0
        record = json_lines(result)[0]
        assert record["status"] == "pass"
        assert record["parameters"]["cocycle"] == "table(window=8)"

    def test_json_is_sorted_and_compact(self):
        result = invoke("verify", "witt-jacobi", "--max-index", "2", "--format", "json")
        line = result.output.splitlines()[0]
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_text_json_parity(self):
        args = ("verify", "sugawara", "--max-index", "2", "--max-level", "3",
                "--alpha", "2/3")
        text = parse_text_line(invoke(*args).output.splitlines()[0])
        record = json_lines(invoke(*args, "--format", "json"))[0]
        assert text["status"] == record["status"].upper()
        assert text["check_name"] == record["check_name"]
        assert text["checked_count"] == str(record["checked_count"])
        for key, value in record["parameters"].items():
            assert text[key] == value

    def test_counterexample_round_trips_to_text(self):
        args = ("verify", "cocycle", "--input", str(SIGN_TABLE), "--window", "3")
        text = parse_text_line(invoke(*args).output.splitlines()[0])
        record = json_lines(invoke(*args, "--format", "json"))[0]
        assert text["counterexample.actual"] == record["counterexample"]["actual"]
        assert text["counterexample.indices.n"] == record["counterexample"]["indices"]["n"]

    def test_output_is_deterministic(self):
        args = ("verify", "verma", "--max-index", "2", "--max-level", "3",
                "--format", "json")
        assert invoke(*args).output == invoke(*args).output

    def test_jobs_flag_does_not_change_output(self):
        base = ("verify", "sugawara", "--max-index", "2", "--max-level", "3")
        assert invoke(*base).output == invoke(*base, "--jobs", "2").output


class TestVerifyErrors:
    def test_unknown_kind(self):
        assert invoke("verify", "nonsense").exit_code == 2

    def test_invalid_scalar_flag(self):
        result = invoke("verify", "sugawara", "--alpha", "1/0")
        assert result.exit_code == 2
        assert "invalid scalar" in result.output

    def test_cocycle_requires_a_source(self):
        result = invoke("verify", "cocycle")
        assert result.exit_code == 2
        assert "exactly one of --virasoro or --input" in result.output

    def test_cocycle_rejects_both_sources(self):
        result = invoke("verify", "cocycle", "--virasoro", "--input", str(SIGN_TABLE))
        assert result.exit_code == 2

    def test_malformed_table_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a header\n", encoding="utf-8")
        result = invoke("verify", "cocycle", "--input", str(bad), "--format", "json")
        assert result.exit_code == 2
        record = json_lines(result)[0]
        assert record["status"] == "input_error"
        assert "header" in record["message"]

    def test_missing_file_is_input_error(self):
        result = invoke("verify", "cocycle", "--input", "/nonexistent.tsv")
        assert result.exit_code == 2
        assert result.output.startswith("INPUT_ERROR")

    # fullwidth three and Arabic-Indic digits, which \d and int() both accept
    @pytest.mark.parametrize("alpha", ["３", "١/٢"])
    def test_scalar_flag_takes_ascii_digits_only(self, alpha):
        result = invoke("verify", "heisenberg", "--max-index", "1", "--max-level", "1",
                        "--alpha", alpha)
        assert result.exit_code == 2
        assert "invalid scalar" in result.output

    @pytest.mark.parametrize("index", ["1_0", "+3", "٣"])
    def test_table_index_takes_ascii_digits_only(self, tmp_path, index):
        table = tmp_path / "table.tsv"
        table.write_text(f"window\t12\n{index}\t11\t1\n", encoding="utf-8")
        result = invoke("verify", "cocycle", "--input", str(table), "--window", "1")
        assert result.exit_code == 2
        assert "invalid index" in result.output

    @pytest.mark.parametrize("command", [("verify", "cocycle"), ("reduce",)])
    def test_diagonal_table_row_is_input_error(self, tmp_path, command):
        # a table lists omega(m, n) for m < n only; a row m = n is rejected, not ignored
        table = tmp_path / "table.tsv"
        table.write_text(VIRASORO_TABLE.read_text(encoding="utf-8") + "3\t3\t1\n",
                         encoding="utf-8")
        result = invoke(*command, "--input", str(table), "--window", "4")
        assert result.exit_code == 2, result.output
        assert "require m < n, got (3, 3)" in result.output

    def test_unicode_minus_is_still_accepted(self, tmp_path):
        result = invoke("verify", "heisenberg", "--max-index", "1", "--max-level", "1",
                        "--alpha", "−3")
        assert result.exit_code == 0
        assert "alpha=-3" in result.output
        table = tmp_path / "table.tsv"
        table.write_text(co.dump_cocycle_table(co.VIRASORO, 4).replace("-", "−"),
                         encoding="utf-8")
        assert "−3\t3\t" in table.read_text(encoding="utf-8")
        result = invoke("verify", "cocycle", "--input", str(table), "--window", "2")
        assert result.exit_code == 0, result.output


class TestEnvironment:
    def test_format_env_var(self):
        result = invoke("verify", "sum-identity", env={"VIRA_FORMAT": "json"})
        assert json_lines(result)[0]["check_name"] == "weighted-sum-identity"

    def test_flag_overrides_env(self):
        result = invoke("verify", "sum-identity", "--format", "text",
                        env={"VIRA_FORMAT": "json"})
        assert result.output.startswith("PASS ")

    def test_jobs_env_var(self):
        base = ("verify", "sugawara", "--max-index", "2", "--max-level", "2")
        with_env = invoke(*base, env={"VIRA_JOBS": "2"})
        assert with_env.exit_code == 0
        assert with_env.output == invoke(*base).output


class TestReduce:
    def test_virasoro_table(self):
        result = invoke("reduce", "--input", str(VIRASORO_TABLE), "--window", "4")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "window\t4"
        assert lines[1] == "r\t1"
        assert lines[2].startswith("PASS cocycle-reduction-residual")

    def test_json_shape(self):
        result = invoke("reduce", "--input", str(VIRASORO_TABLE), "--window", "4",
                        "--format", "json")
        head, residual = json_lines(result)
        assert head["check_name"] == "cocycle-reduction"
        assert head["r"] == "1"
        assert head["beta"] == {"window": 4, "values": []}
        assert residual["status"] == "pass"

    def test_recovers_shifted_cocycle(self, tmp_path):
        beta0 = co.OneCochain(6, {0: Fraction(1, 2), 3: Fraction(-2), -5: Fraction(1, 3)})
        omega = Fraction(3, 4) * co.VIRASORO + co.coboundary(beta0)
        path = tmp_path / "shifted.tsv"
        path.write_text(co.dump_cocycle_table(omega, 16), encoding="utf-8")
        result = invoke("reduce", "--input", str(path), "--window", "6", "--format", "json")
        assert result.exit_code == 0
        head, residual = json_lines(result)
        assert head["r"] == "3/4"
        assert residual["status"] == "pass"
        recovered = {n: value for n, value in head["beta"]["values"]}
        assert recovered == {0: "-1/2", 3: "2", -5: "-1/3"}

    def test_non_cocycle_rejected(self):
        result = invoke("reduce", "--input", str(SIGN_TABLE), "--window", "3",
                        "--format", "json")
        assert result.exit_code == 2
        record = json_lines(result)[0]
        assert record["status"] == "input_error"
        assert "not a cocycle" in record["message"]

    def test_input_required(self):
        assert invoke("reduce").exit_code == 2

    def test_window_too_small(self):
        result = invoke("reduce", "--input", str(VIRASORO_TABLE), "--window", "1")
        assert result.exit_code == 2
        assert "window" in result.output


class TestNontrivial:
    def test_virasoro_witness(self):
        result = invoke("nontrivial", "--virasoro", "--window", "8", "--format", "json")
        assert result.exit_code == 0
        assert json_lines(result)[0]["witness"] == [1, 2]

    def test_text_form(self):
        result = invoke("nontrivial", "--virasoro", "--window", "8")
        assert result.output == ("WITNESS nontriviality-witness cocycle=virasoro "
                                 "window=8 witness=1,2\n")

    def test_coboundary_has_none(self, tmp_path):
        beta = co.OneCochain(4, {0: Fraction(2), 1: Fraction(-1)})
        path = tmp_path / "coboundary.tsv"
        path.write_text(co.dump_cocycle_table(co.coboundary(beta), 8),
                        encoding="utf-8")
        result = invoke("nontrivial", "--input", str(path), "--window", "4",
                        "--format", "json")
        assert result.exit_code == 0
        assert json_lines(result)[0]["witness"] is None
        text = invoke("nontrivial", "--input", str(path), "--window", "4")
        assert text.output.endswith("witness=none\n")

    def test_requires_exactly_one_source(self):
        assert invoke("nontrivial", "--window", "4").exit_code == 2


class TestContract:
    """What the command line accepts and rejects, independent of how it parses."""

    def test_negative_scalar_as_its_own_token(self):
        result = invoke("verify", "heisenberg", "--max-index", "1", "--max-level", "1",
                        "--alpha", "-1/2")
        assert result.exit_code == 0, result.output
        assert "alpha=-1/2" in result.output

    @pytest.mark.parametrize("env", [{"VIRA_FORMAT": "xml"}, {"VIRA_JOBS": "0"}])
    def test_invalid_environment_default_exits_two(self, env):
        assert invoke("verify", "sum-identity", env=env).exit_code == 2

    def test_abbreviated_option_exits_two(self):
        assert invoke("verify", "sum-identity", "--max-ind", "3").exit_code == 2

    def test_negative_bound_exits_two(self):
        assert invoke("verify", "sum-identity", "--max-index", "-1").exit_code == 2

    # int() reads other scripts' digits, "_" separators and "+"; the integer options do not
    @pytest.mark.parametrize("value", ["３", "٣", "1_0", "+3"])
    @pytest.mark.parametrize("option", ["--max-index", "--max-level", "--window", "--jobs",
                                        "VIRA_JOBS"])
    def test_integer_option_takes_ascii_digits_only(self, monkeypatch, capsys, option, value):
        args = ["verify", "sum-identity"]
        if option == "VIRA_JOBS":
            monkeypatch.setenv(option, value)
        else:
            args += [option, value]
        with pytest.raises(SystemExit) as exit:
            cli.main(args=args, prog_name="vira")
        assert exit.value.code == 2
        assert capsys.readouterr().out == ""

    def test_verify_help(self):
        result = invoke("verify", "--help")
        assert result.exit_code == 0
        assert "--max-index" in result.output

    def test_usage_error_goes_to_stderr(self, capsys):
        with pytest.raises(SystemExit) as exit:
            cli.main(args=["verify", "sugawara", "--alpha", "1/0"], prog_name="vira")
        assert exit.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid scalar" in err

    def test_main_exits_with_the_command_status(self, capsys):
        with pytest.raises(SystemExit) as passed:
            cli.main(args=["verify", "sum-identity", "--max-index", "3"], prog_name="vira")
        assert passed.value.code == 0
        with pytest.raises(SystemExit) as failed:
            cli.main(args=["verify", "cocycle", "--input", str(SIGN_TABLE), "--window", "3"],
                     prog_name="vira")
        assert failed.value.code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS weighted-sum-identity")
        assert lines[1].startswith("FAIL cocycle-identity")


# One serial command of each family, run as `python -m virasoro.cli`.
FAMILIES = {
    "fock": ("verify", "sugawara", "--max-index", "1", "--max-level", "1"),
    "verma": ("verify", "verma", "--max-index", "1", "--max-level", "1"),
    "witt-jacobi": ("verify", "witt-jacobi", "--max-index", "1"),
    "cocycle": ("verify", "cocycle", "--virasoro", "--window", "2"),
    "reduce": ("reduce", "--input", str(VIRASORO_TABLE), "--window", "4"),
    "nontrivial": ("nontrivial", "--virasoro", "--window", "4"),
}
# Modules a serial command does not use: each costs start-up time in every process.
UNUSED_MODULES = {"click", "dataclasses", "inspect", "concurrent.futures", "multiprocessing"}


@pytest.mark.parametrize("family", FAMILIES)
def test_serial_command_imports_only_what_it_uses(family):
    # -X importtime writes a line to stderr as each import finishes; those after the line
    # of `site` are the command's own, not the interpreter's start-up.
    env = {key: value for key, value in os.environ.items()
           if key not in ("VIRA_FORMAT", "VIRA_JOBS")}
    env["PYTHONPATH"] = str(SRC)
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "virasoro.cli",
                          *FAMILIES[family]], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")]
    loaded = set(names[names.index("site") + 1:])
    assert "virasoro.reports" in loaded
    assert loaded & UNUSED_MODULES == set()
