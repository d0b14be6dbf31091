"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed, out_path):
    if name == "grid":
        return workloads.Grid(seed, out_path, radius=3)
    if name == "deep_verify":
        return workloads.DeepVerify(
            seed, out_path, vsemirnov_terms=60, covering_seeds=((1, 1), (-1, 1)), target_bits=256
        )
    if name == "construct_cover":
        return workloads.ConstructCover(seed, out_path, draws=4)
    return workloads.ConstructCoverWide(seed, out_path, draws=2, trace_draws=4)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_benchmark_json_names_what_the_runner_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, out_dir):
    result = run.run_workload(tiny(name, 1, str(out_dir / "op.json")), 0.0, False, setup_s=0.1)
    assert result["correct"] and result["attempted"] >= run.MIN_PASSES
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


# Per-layer counts that must be nonzero because the workload's op does that work.
EXPECTED_WORK = {
    "grid": [
        "verifier.verify.calls",
        "recurrence.terms.calls",
        "constructor.construct.calls",
        "verifier.certificates",
    ],
    "deep_verify": [
        "cli.main.calls",
        "cli.output_bytes",
        "arith.is_prime.calls",
        "arith.compositeness_witness.calls",
        "recurrence.terms.calls",
    ],
    "construct_cover": [
        "cli.main.calls",
        "cli.output_bytes",
        "arith.factorize.calls",
        "lucas.u.calls",
        "covering.validate_triples.calls",
        "constructor.construct.calls",
        "constructor.strategy.CoveringCRT",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_WORK))
def test_traced_run_reports_per_layer_work_and_same_digest(name, out_dir, capsys):
    result = run.run_workload(tiny(name, 2, str(out_dir / "op.json")), 0.0, True)
    digests = [line.split() for line in capsys.readouterr().out.splitlines() if "untraced" in line]
    assert digests and digests[0][3] == digests[0][5]
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(tracing.metric_units())
    for key in EXPECTED_WORK[name]:
        assert metrics[key] > 0, key
    assert metrics["arith.witness.not_composite"] == 0
    assert (out_dir / f"spans-{name}.jsonl").stat().st_size > 0


class Flaky(workloads.Grid):
    """Grid whose op raises EffortExceeded for one pair, as a hard factorisation would."""

    def op(self, inp):
        from compseq.arith import EffortExceeded

        if inp == (3, 1):
            raise EffortExceeded("could not split 1234567")
        return super().op(inp)


def test_failed_ops_are_counted_and_listed_by_input(out_dir, capsys):
    result = run.run_workload(Flaky(1, str(out_dir / "op.json"), radius=3), 0.0, False, setup_s=0.1)
    assert result["correct"] and result["failed"] == run.MIN_PASSES
    assert result["metrics"]["ok_frac"]["value"] == 1 - result["failed"] / result["attempted"]
    assert "FAILED grid [3 1]: EffortExceeded: could not split 1234567" in capsys.readouterr().out


def test_install_wraps_every_binding_and_uninstall_restores():
    from compseq import arith, lucas, verifier

    original = arith.is_prime
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        for binding in (
            "compseq.verifier.compositeness_witness",
            "compseq.lucas.compositeness_witness",
            "compseq.constructor.factorize",
            "compseq.covering.factorize",
            "compseq.verifier.factorize",
            "compseq.arith.is_prime",
            "compseq.constructor.is_prime",
            "compseq.covering.is_prime",
            "compseq.lucas.is_prime",
            "compseq.verifier.terms",
        ):
            assert binding in patched
        assert arith.is_prime is not original and lucas.is_prime is arith.is_prime
        arith.compositeness_witness(91)
        assert [s[0] for s in tracer.spans] == ["arith.compositeness_witness", "arith.is_prime"]
        assert tracer.spans[1][3] == 0
    finally:
        tracer.uninstall()
    assert arith.is_prime is original and verifier.compositeness_witness is arith.compositeness_witness


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["verifier.verify", 0.0, 10.0, -1], ["arith.is_prime", 2.0, 5.0, 0]]
    metrics = tracer.metrics(0.0)
    assert metrics["verifier.verify.self_s"] == 7.0
    assert metrics["arith.is_prime.self_s"] == 3.0


def _good_certs():
    from compseq import constructor, verifier

    result = constructor.construct(-9, -1)
    report = verifier.verify_construction(result, 40)
    return result.seed.x0, result.seed.x1, check.certs_from_report(report)


def test_checker_accepts_good_certificates():
    x0, x1, certs = _good_certs()
    assert check.check_certificates(-9, -1, x0, x1, 40, certs) == []


def test_checker_rejects_tampered_certificates():
    x0, x1, certs = _good_certs()
    c = certs[5]
    non_divisor = next(d for d in range(2, 100) if abs(c.term) % d)
    tampered = [
        c._replace(value=non_divisor),
        c._replace(kind="mr_base", value=1),
        c._replace(kind="not_composite", value=None),
        c._replace(term=c.term + 1),
    ]
    for bad in tampered:
        certs_bad = certs[:5] + [bad] + certs[6:]
        assert check.check_certificates(-9, -1, x0, x1, 40, certs_bad), bad
    assert check.check_certificates(-9, -1, x0, x1, 40, certs[:-1])
    assert check.check_certificates(-9, -1, 2 * x0, 2 * x1, 40, certs)


def test_checker_strong_test():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2 but not to base 3.
    assert check.strong_probable_prime(2047, 2)
    assert not check.strong_probable_prime(2047, 3)
    assert [p for p in range(50) if check.is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]


def test_inputs_follow_the_seed(tmp_path):
    out = str(tmp_path / "op.json")
    grid = workloads.Grid(1, out)
    assert len(grid.inputs) == 3658
    assert grid.inputs == workloads.Grid(1, out).inputs != workloads.Grid(2, out).inputs
    one, two = (tiny("construct_cover", s, out) for s in (1, 2))
    assert one.inputs == tiny("construct_cover", 1, out).inputs
    assert one.inputs_digest == two.inputs_digest
    wide = [tiny("construct_cover_wide", s, out) for s in (1, 1, 2)]
    assert wide[0].inputs == wide[1].inputs and wide[0].inputs_digest != wide[2].inputs_digest


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_each_op_is_timed_at_its_inputs_fastest_run():
    p = run.Pass(latencies={(1,): [3.0, 1.0, 2.0], (2,): [4.0, 5.0, 6.0]})
    metrics = run.end_to_end(p, setup_s=0.1)
    assert metrics["latency_p50_ms"] == 2500.0
    assert metrics["ops_per_s"] == 6 / 15.0


class Constant(workloads.Workload):
    """Ops on inputs (0,) to (59,) that pass, and (-1,) that always fails."""

    name = "constant"
    inputs = [(i,) for i in range(60)] + [(-1,)]

    def __init__(self):
        self.out_path = ""

    def check_output(self, inp, out):
        return workloads.Checked([], None, (1, 1))


def test_refine_reruns_the_slowest_inputs_that_never_failed(monkeypatch):
    def timed_op(workload, inp):  # an op on (i,) takes i seconds
        return (float(inp[0]), None, RuntimeError("fails")) if inp == (-1,) else (float(inp[0]), inp, None)

    monkeypatch.setattr(run, "_timed_op", timed_op)
    w, p = Constant(), run.Pass()
    for inp in w.inputs:
        run._run_op(w, inp, p)
    slowest = range(60 - run.REFINE_TOP, 60)
    run.refine(w, p, budget=3 * sum(slowest))
    runs = {inp[0]: len(times) for inp, times in p.latencies.items()}
    assert all(runs[i] == 1 for i in range(60 - run.REFINE_TOP)) and runs[-1] == 1
    assert all(runs[i] > 1 for i in slowest) and p.failed_inputs == {(-1,)}
    time_run = [sum(p.latencies[(i,)]) for i in slowest]
    assert max(time_run) - min(time_run) <= max(slowest)


def test_runner_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
