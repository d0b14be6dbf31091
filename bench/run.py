"""compseq benchmark: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 repeats whole passes over the workload's inputs until --seconds
are timed and every input has run at least MIN_PASSES times, and reports
the end-to-end metrics. Each op is timed at the fastest time its input took
in the run: the shared host alternates between a fast and a slow speed
every few seconds, and other tenants only ever add time. After each pass
the slowest inputs run again, so that the tail, like the median, rests on
enough repeats to catch a fast moment. --trace 1 runs
one pass, each op once untraced and once traced, and reports the
per-layer metrics. Every output is re-checked by bench/check.py outside
the timed region. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 21
MIN_PASSES = 3
TAIL_BEYOND = 10
# After each pass, the REFINE_TOP slowest inputs run again for REFINE_SHARE of that pass's time.
REFINE_TOP = 4 * TAIL_BEYOND
REFINE_SHARE = 0.5
ALL_ORDER = ("grid", "deep_verify", "construct_cover", "construct_cover_wide")
# Longest a child of `--workload all` may take; a single run ends well within it.
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """What running a workload's ops produced."""

    latencies: dict = field(default_factory=dict)  # input -> seconds of each of its ops
    failures: list[tuple[str, str]] = field(default_factory=list)  # (input, reason)
    failed_inputs: set = field(default_factory=set)
    problems: list[tuple[str, str]] = field(default_factory=list)  # outputs that did not re-check
    seeds: dict = field(default_factory=dict)  # input -> (x0, x1)
    out_bytes: int = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies.values()))

    @property
    def timed_s(self) -> float:
        return sum(map(sum, self.latencies.values()))

    def best(self) -> list[float]:
        """Each input's fastest op in the run."""
        return [min(times) for times in self.latencies.values()]

    def seeds_digest(self) -> str:
        return workloads.digest(sorted(self.seeds.items()))


def _timed_op(workload, inp):
    """(seconds, output, exception) of one op; only the call itself is timed."""
    workload.before_op()
    started = time.perf_counter()
    try:
        out, error = workload.op(inp), None
    except Exception as exc:
        out, error = None, exc
    return time.perf_counter() - started, out, error


def run_ops(workload, passes, seconds: float) -> Pass:
    """Run whole passes until `seconds` are timed and every input ran MIN_PASSES times.

    Every exception an op raises counts as a failed op, with its time, and
    the loop goes on.
    """
    result = Pass()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for done, inputs in enumerate(passes, 1):
            # Each pass runs on the next CPU in turn. A shared host's vCPUs can
            # differ in speed by half for minutes, and left alone the
            # scheduler may keep a whole run on the slow one.
            os.sched_setaffinity(0, {cpus[done % len(cpus)]})
            pass_s = sum(_run_op(workload, inp, result) for inp in inputs)
            if done >= MIN_PASSES and result.timed_s >= seconds:
                return result
            refine(workload, result, REFINE_SHARE * pass_s)
    finally:
        os.sched_setaffinity(0, cpus)


def refine(workload, result: Pass, budget: float) -> None:
    """Re-run the REFINE_TOP slowest inputs that never failed for about `budget` seconds.

    Each turn goes to the one with the least time run so far, so cheap
    inputs get more repeats than costly ones. The tail is an order
    statistic of a few slow inputs, so without extra repeats it follows
    whichever of them missed every fast moment of the host.
    """
    ok = [inp for inp in result.latencies if inp not in result.failed_inputs]
    top = sorted(ok, key=lambda inp: min(result.latencies[inp]), reverse=True)[:REFINE_TOP]
    spent = 0.0
    while top and spent < budget:
        spent += _run_op(workload, min(top, key=lambda inp: sum(result.latencies[inp])), result)


def _run_op(workload, inp, result: Pass) -> float:
    elapsed, out, error = _timed_op(workload, inp)
    result.latencies.setdefault(inp, []).append(elapsed)
    failures = len(result.failures)
    _check(workload, inp, out, error, result)
    if len(result.failures) > failures:
        result.failed_inputs.add(inp)
    return elapsed


def run_traced(workload, inputs, tracer) -> tuple[Pass, Pass]:
    """Run each op untraced and traced, alternating which goes first.

    Back-to-back pairs see the same machine speed, so their time ratio
    gives the tracing overhead even when that speed drifts.
    """
    plain, traced = Pass(), Pass()
    for i, inp in enumerate(inputs):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            try:
                elapsed, out, error = _timed_op(workload, inp)
            finally:
                tracer.uninstall()
            p = traced if with_trace else plain
            p.latencies.setdefault(inp, []).append(elapsed)
            _check(workload, inp, out, error, p)
    return plain, traced


def _check(workload, inp, out, error, result: Pass) -> None:
    name = workload.describe(inp)
    if error is not None:
        result.failures.append((name, f"{type(error).__name__}: {str(error)[:200]}"))
        return
    try:
        checked = workload.check_output(inp, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append((name, f"output unreadable: {exc!r}"[:300]))
        result.failures.append((name, "output unreadable"))
        return
    result.seeds[inp] = checked.seed
    result.out_bytes += checked.out_bytes
    result.problems += [(name, problem) for problem in checked.problems]
    if checked.problems or checked.failure:
        result.failures.append((name, (checked.problems or [checked.failure])[0]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


def measure_setup(probes: int = SETUP_PROBES) -> float:
    """Median seconds from `import compseq` through the warm-up, in fresh processes."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(OUT / "setup.json")],
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, each op timed at its input's fastest run."""
    ok_frac = 1 - len(p.failures) / p.attempted
    best = p.best()
    return {
        "setup_s": setup_s,
        "ops_per_s": ok_frac * len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": tail(best)[0] * 1e3,
        "ok_frac": ok_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(workload, seconds: float, trace: bool, setup_s: float | None = None) -> dict:
    """Measure one workload and print its report; returns the result object."""
    print(f"workload {workload.name}: inputs digest {workload.inputs_digest}")
    if trace:
        tracer = tracing.Tracer()
        plain, traced = run_traced(workload, workload.inputs, tracer)
        tracer.counts["cli.output_bytes"] = traced.out_bytes
        metrics = tracer.metrics(traced.timed_s / plain.timed_s - 1.0)
        units = tracing.metric_units()
        tracer.write(str(OUT / f"spans-{workload.name}.jsonl"))
        same = plain.seeds_digest() == traced.seeds_digest() and plain.failures == traced.failures
        print(f"seeds digest untraced {plain.seeds_digest()} traced {traced.seeds_digest()}")
        p, correct = traced, same and not plain.problems
    else:
        p = run_ops(workload, workload.passes(), seconds)
        metrics = end_to_end(p, setup_s)
        units = END_TO_END_UNITS
        print(f"seeds digest {p.seeds_digest()} over {len(p.seeds)} distinct inputs")
        print(f"latency_tail_ms is p{tail(p.best())[1]:.2f} of {len(p.latencies)} inputs")
        print(f"{p.attempted} ops in {p.timed_s:.3f} s timed, {p.attempted / p.timed_s:.3f} ops/s of wall time")
        correct = True
    print(f"attempted {p.attempted} failed {len(p.failures)} failed_frac {len(p.failures) / p.attempted:.6f}")
    for name, reason in p.failures:
        print(f"FAILED {workload.name} [{name}]: {reason}")
    for name, problem in p.problems:
        print(f"WRONG {workload.name} [{name}]: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    return {
        "correct": correct and not p.problems,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh child process, so setup and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ALL_ORDER:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compseq" / "__init__.py").is_file():
        print(f"error: no compseq package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        setup_s = None if args.trace else measure_setup()
        sys.path.insert(0, str(SRC))
        out_path = str(OUT / f"{args.workload}.json")
        workloads.warm_up(out_path)
        workload = workloads.WORKLOADS[args.workload](args.seed, out_path)
        result = run_workload(workload, args.seconds, bool(args.trace), setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
