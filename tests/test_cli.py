import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compseq
from compseq import constructor as C
from compseq.cli import (
    EXIT_EFFORT,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_NOT_CONSTRUCTIBLE,
    EXIT_OUTPUT,
    EXIT_PASS,
    EXIT_TOO_LARGE,
    EXIT_USAGE,
    build_parser,
    main,
)
from compseq.covering import Rule
from compseq.verifier import CERTIFICATE_BLOCK


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "construct", "-a", "-9", "-b", "-1", "--terms", "50", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["x0"]["value"] == "105"
        assert payload["x1"]["value"] == "134"
        assert payload["report"]["verdict"] == "pass"

    def test_excluded_pair(self, capsys):
        code, out = run(capsys, "construct", "-a", "2", "-b", "-1", "--json")
        assert code == 2
        assert json.loads(out)["reason"] == "ExcludedPair"

    def test_b_zero(self, capsys):
        code, out = run(capsys, "construct", "-a", "3", "-b", "0", "--json")
        assert code == 2
        assert json.loads(out)["reason"] == "BZero"

    def test_vsemirnov(self, capsys):
        code, out = run(capsys, "construct", "-a", "1", "-b", "1", "--terms", "200", "--json")
        assert code == 0
        assert json.loads(out)["strategy"] == "Vsemirnov"


REPORT_KEYS = ["params", "seed", "horizon", "verdict", "coprime_ok", "failures", "certificates"]


class TestCoveringReportKeys:
    def test_covering_construction(self, capsys):
        code, out = run(capsys, "construct", "-a", "-9", "-b", "-1", "--json")
        assert code == 0
        report = json.loads(out)["report"]
        assert list(report) == REPORT_KEYS + [
            "strategy", "triples", "P", "y", "z", "covering_law_ok"
        ]
        assert report["triples"] == [
            {"p": 3, "m": 2, "r": 0},
            {"p": 2, "m": 6, "r": 1},
            {"p": 5, "m": 6, "r": 3},
            {"p": 13, "m": 6, "r": 5},
        ]
        assert (report["P"], report["y"], report["z"]) == (390, 105, 134)

    @pytest.mark.parametrize(
        "a, b, tail", [(0, 7, ["strategy", "covering_law_ok"]), (1, 1, ["strategy"])]
    )
    def test_other_constructions_have_no_covering_keys(self, capsys, a, b, tail):
        code, out = run(capsys, "construct", "-a", str(a), "-b", str(b), "--json")
        assert code == 0
        assert list(json.loads(out)["report"]) == REPORT_KEYS + tail


class TestVerify:
    def test_vsemirnov_pair(self, capsys):
        code, _ = run(
            capsys, "verify", "-a", "1", "-b", "1",
            "--x0", "106276436867", "--x1", "35256392432", "--terms", "150",
        )
        assert code == 0

    def test_unit_seed_fails(self, capsys):
        code, _ = run(capsys, "verify", "-a", "1", "-b", "1", "--x0", "1", "--x1", "2")
        assert code == 1

    def test_table1_anomaly_row_outcome_recorded(self, capsys):
        code, out = run(
            capsys, "verify", "-a", "3", "-b", "-1",
            "--x0", "7373556", "--x1", "2006357", "--terms", "100", "--json",
        )
        payload = json.loads(out)
        assert payload["verdict"] in ("pass", "fail")
        assert code in (0, 1)


class TestOther:
    def test_parse_error_exit_code(self, capsys):
        assert main(["construct", "-a", "notanint", "-b", "1"]) == 3
        assert main(["bogus-subcommand"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-a", "1", "-b", "1", "--x0", "2", "--x1", "3", "--terms", "-1"],
            ["construct", "-a", "1", "-b", "1", "--terms", "-1"],
            ["lucas", "-a", "1", "-b", "0", "-n", "5"],
            ["lucas", "-a", "1", "-b", "1", "-n", "-1"],
            ["conjecture", "--a-max", "4", "--p-max", "-3"],
            ["conjecture", "--a-max", "-1"],
            ["triples", "-a", "8", "-b", "1", "--terms", "5"],
        ],
    )
    def test_out_of_range_argument_exit_code(self, capsys, argv):
        assert run(capsys, *argv) == (3, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "-a", "9", "-b", "1", "--terms", "5000", "--json"],
            ["lucas", "-a", "9", "-b", "1", "-n", "5000"],
        ],
    )
    def test_output_past_the_digit_limit_exit_code(self, capsys, argv):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("existing", [None, "kept\n"])
    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_output_past_the_digit_limit_leaves_the_output_file_alone(self, capsys, tmp_path, command, existing):
        # Every term text is made before the -o file is opened, so exit 4
        # neither creates the file nor truncates one that is there.
        seed = C.construct(9, 1).seed
        argv = {
            "construct": ["construct", "-a", "9", "-b", "1"],
            "verify": ["verify", "-a", "9", "-b", "1", "--x0", str(seed.x0), "--x1", str(seed.x1)],
        }[command]
        path = tmp_path / "report.json"
        if existing is not None:
            path.write_text(existing)
        assert main([*argv, "--terms", "5000", "--json", "-o", str(path)]) == EXIT_TOO_LARGE
        assert (path.read_text() if path.exists() else None) == existing
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_json_report_is_written_in_blocks_of_certificates(self, capsys, monkeypatch):
        # A count, not a timing: each write to stdout holds at most
        # CERTIFICATE_BLOCK certificates, so none is longer than that many
        # times the longest term text plus the rest of a certificate;
        # together they are the whole output.
        argv = ["construct", "-a", "999999999989", "-b", "1", "--json"]
        assert main(argv) == EXIT_PASS
        whole = capsys.readouterr().out
        certificates = json.loads(whole)["report"]["certificates"]

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == EXIT_PASS
        assert "".join(writes) == whole
        assert len(writes) > math.ceil(len(certificates) / CERTIFICATE_BLOCK) > 1
        assert max(write.count('"term_digits": ') for write in writes) == CERTIFICATE_BLOCK
        longest = max(len(c["term"]) for c in certificates)
        assert longest > 2000
        assert max(map(len, writes)) <= CERTIFICATE_BLOCK * (longest + 200)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python has no int-to-str digit limit")
    def test_text_mode_converts_no_term_past_the_digit_limit(self, capsys):
        # x_3200 of the Vsemirnov pair has about 680 digits.  Text mode prints
        # the certificates by count, so only --json meets the limit.
        argv = ["verify", "-a", "1", "-b", "1", "--x0", "106276436867", "--x1", "35256392432", "--terms", "3200"]
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert main(argv) == EXIT_PASS
            assert "certificates: [3201 entries]\n" in capsys.readouterr().out
            assert main([*argv, "--json"]) == EXIT_TOO_LARGE
            assert capsys.readouterr().out == ""
        finally:
            sys.set_int_max_str_digits(saved)

    def test_effort_exceeded_exit_code(self, capsys, monkeypatch):
        from compseq import arith, constructor

        def resist(n, *args, **kwargs):
            raise arith.EffortExceeded(f"could not split {n}")

        monkeypatch.setattr(constructor, "factorize", resist)
        assert main(["construct", "-a", "8", "-b", "1", "--json"]) == EXIT_EFFORT == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: effort exceeded: could not split 8\n"

    def test_search_exhausted_exit_code(self, capsys, monkeypatch):
        from compseq import arith, constructor

        def exhausted(*args, **kwargs):
            raise arith.SearchExhausted("no admissible k below 10")

        monkeypatch.setattr(constructor, "coprime_shift", exhausted)
        assert main(["construct", "-a", "8", "-b", "1", "--json"]) == EXIT_INTERNAL == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: SearchExhausted('no admissible k below 10')\n"
        )

    def test_failed_assertion_exit_code(self, capsys, monkeypatch):
        from compseq import constructor

        # construct asserts that the triples it picked are valid.
        monkeypatch.setattr(constructor, "validate_triples", lambda *args: ("bad triple",))
        assert main(["construct", "-a", "8", "-b", "1", "--json"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: AssertionError('invalid triple set for (8, 1)')\n"
        )

    def test_failed_assertion_raises_under_python_optimize(self):
        # python -O strips assert statements; construct's check must stay.
        src = os.path.dirname(os.path.dirname(os.path.abspath(compseq.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "from compseq import constructor\n"
            "assert False, 'asserts are kept'\n"
            "constructor.validate_triples = lambda *args: ('bad triple',)\n"
            "try:\n"
            "    constructor.construct(8, 1)\n"
            "except AssertionError as exc:\n"
            "    print(repr(exc))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, env=env, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "AssertionError('invalid triple set for (8, 1)')\n"

    def test_table(self, capsys):
        code, out = run(capsys, "table", "--terms", "30", "--json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 10

    def test_table_fails_when_a_rows_rules_do_not_cover_its_terms(self, capsys, monkeypatch):
        # Each rule moved to the next class: the triples still cover the
        # integers and divide u_m, but no longer divide the seeds' terms.
        rules, x0, x1 = C.TABLE1[(5, 1)]
        shifted = tuple(Rule(d, (s + 1) % m, m) for d, s, m in rules)
        monkeypatch.setitem(C.TABLE1, (5, 1), (shifted, x0, x1))
        code, out = run(capsys, "table", "--json")
        assert code == EXIT_FAIL
        row = next(r for r in json.loads(out)["rows"] if (r["a"], r["b"]) == (5, 1))
        assert row["triples_valid"] is True
        assert row["paper_verdict"] == "fail"
        assert row["covering_law_ok"] is False

    def test_triples(self, capsys):
        code, out = run(capsys, "triples", "-a", "8", "-b", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"]
        assert payload["triples"] == [
            {"p": 2, "m": 2, "r": 0},
            {"p": 3, "m": 4, "r": 1},
            {"p": 11, "m": 4, "r": 3},
        ]

    def test_conjecture(self, capsys):
        code, out = run(capsys, "conjecture", "--a-max", "5", "--p-max", "13", "--json")
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_lucas(self, capsys):
        code, out = run(capsys, "lucas", "-a", "3", "-b", "-1", "-n", "24", "--json")
        assert code == 0
        value = int(json.loads(out)["u"]["value"])
        assert value % 1103 == 0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["lucas", "-a", "1", "-b", "1", "-n", "10", "--json", "-o", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["u"]["value"] == "55"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_file_exit_code(self, capsys, tmp_path, target):
        path = tmp_path / target
        assert main(["lucas", "-a", "1", "-b", "1", "-n", "10", "--json", "-o", str(path)]) == EXIT_OUTPUT == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: output could not be written: ")
        assert str(path) in captured.err

    def test_closed_stdout_exit_code(self):
        # As the console script runs it, with the read end of its stdout pipe
        # closed before it writes: no traceback, and no "Exception ignored"
        # from the flush at exit.
        src = os.path.dirname(os.path.dirname(os.path.abspath(compseq.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys; from compseq.cli import main; sys.exit(main())"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script, "lucas", "-a", "1", "-b", "1", "-n", "10", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OUTPUT
        assert proc.stderr == "error: output could not be written: [Errno 32] Broken pipe\n"

    def test_one_parser_serves_many_calls(self, capsys):
        assert build_parser() is build_parser()
        assert main(["construct", "-a", "notanint", "-b", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err
        code, out = run(capsys, "construct", "-a", "-9", "-b", "-1", "--terms", "20", "--json")
        assert code == 0
        assert json.loads(out)["x1"]["value"] == "134"
        code, out = run(capsys, "verify", "-a", "-9", "-b", "-1", "--x0", "105", "--x1", "134")
        assert code == 0
        assert "verdict: pass" in out and "horizon: 200" in out
        code, out = run(capsys, "lucas", "-a", "1", "-b", "1", "-n", "10", "--json")
        assert code == 0
        assert json.loads(out)["u"]["value"] == "55"

    def test_json_round_trip(self, capsys):
        _, out = run(capsys, "construct", "-a", "8", "-b", "1", "--terms", "20", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


# Every flag each subcommand takes, with values around and past its range.
SMALL = st.integers(-12, 12)
FLAG_VALUES = {
    "-a": SMALL,
    "-b": SMALL,
    "--x0": SMALL,
    "--x1": SMALL,
    "--terms": st.integers(-3, 30),
    "-n": st.integers(-3, 30),
    "--a-max": st.integers(-3, 8),
    "--p-max": st.integers(-3, 30),
}
SUBCOMMAND_FLAGS = {
    "construct": ("-a", "-b", "--terms"),
    "verify": ("-a", "-b", "--x0", "--x1", "--terms"),
    "triples": ("-a", "-b"),
    "table": ("--terms",),
    "conjecture": ("--a-max", "--p-max"),
    "lucas": ("-a", "-b", "-n"),
}
DOCUMENTED_EXIT_CODES = {
    EXIT_PASS, EXIT_FAIL, EXIT_NOT_CONSTRUCTIBLE, EXIT_USAGE, EXIT_TOO_LARGE, EXIT_EFFORT,
    EXIT_INTERNAL, EXIT_OUTPUT,
}


@st.composite
def argvs(draw):
    """A subcommand with each of its flags present (most often) or missing,
    in any order, and --json or not."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(SUBCOMMAND_FLAGS[command])):
        if draw(st.integers(0, 4)):
            argv += [flag, str(draw(FLAG_VALUES[flag]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in DOCUMENTED_EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def readme_cli_examples():
    """The commands of README's `## CLI` block, without `compseq` and comments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_pass(capsys, argv):
    assert main(argv) == EXIT_PASS
