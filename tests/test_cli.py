import json

import pytest

from compseq.cli import EXIT_EFFORT, build_parser, main


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

    def test_effort_exceeded_exit_code(self, capsys, monkeypatch):
        from compseq import arith, constructor

        def resist(n, *args, **kwargs):
            raise arith.EffortExceeded(f"could not split {n}")

        monkeypatch.setattr(constructor, "factorize", resist)
        assert main(["construct", "-a", "8", "-b", "1", "--json"]) == EXIT_EFFORT == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: effort exceeded: could not split 8\n"

    def test_table(self, capsys):
        code, out = run(capsys, "table", "--terms", "30", "--json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 10

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
