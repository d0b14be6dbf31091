"""Inputs and the timed operation of each benchmark workload.

A workload's inputs form one pass; the timed loop repeats whole passes:

- grid: the 3658 pairs of the 61x61 grid;
- deep_verify: both Vsemirnov pairs and 24 covering seeds;
- construct_cover: 168 prime powers |a| with b = +-1.

--seed sets the order of the inputs. The covering seeds and prime powers
themselves are stratified draws made with the fixed POOL_SEED: hintless
verify and construct times differ several-fold between primes of the same
size, so with fresh draws per seed the median and tail latencies of these
two workloads spread by 26% to 37% between seeds. construct_cover_wide
keeps fresh seeded draws over [1e3, 1e15] and is not gated (see
bench/README.md).

The program sees only the generated arguments. `op` is the timed call;
`check_output` re-checks its result with bench/check.py, outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Iterator

import check

POOL_SEED = 0

GRID_RADIUS = 30
GRID_TERMS = 200
CONSTRUCT_TERMS = 200  # compseq construct's default --terms

# Vsemirnov's record pair for (a, b) = (1, 1), J. Integer Seq. 7 (2004).
VSEMIRNOV = (106276436867, 35256392432)
VSEMIRNOV_TERMS = 3000
COVERING_A_RANGE = (10**3, 10**9)
COVERING_SEEDS = ((1, 12), (-1, 12))  # (b, how many prime |a|)
TARGET_BITS = 2048

COVER_A_RANGE = (10**3, 10**12)
COVER_DRAWS = 168
WIDE_A_RANGE = (10**3, 10**15)
WIDE_DRAWS = 48  # fresh draws per pass
WIDE_TRACE_DRAWS = 288


@dataclass
class Checked:
    problems: list[str]  # outputs that do not re-check: the run is not correct
    failure: str | None  # the program itself reported failure
    seed: tuple[int, int]  # the (x0, x1) the op constructed or verified
    out_bytes: int = 0


def warm_up(out_path: str) -> None:
    """Import compseq and run one construct and one hintless verify.

    Together they fill both lazy prime sieves, so the timed loop pays none.
    """
    from compseq import cli

    for argv in (
        ["construct", "-a", "-9", "-b", "-1"],
        ["verify", "-a", "-9", "-b", "-1", "--x0", "105", "--x1", "134"],
    ):
        code = cli.main(argv + ["--json", "-o", out_path])
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited with {code}")


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _log_uniform(rng: random.Random, lo: int, hi: int, i: int, strata: int) -> float:
    """Log-uniform draw from the i-th of `strata` equal slices of [lo, hi]."""
    u = (i + rng.random()) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def prime_power_draws(rng: random.Random, lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """`count` pairs (a, b): |a| = p^s log-uniform over [lo, hi], stratified.

    s is 1, 2 or 3 with equal weight, so squares and cubes (whose a^2 - 1
    has algebraic factors) are drawn as often as primes. Signs of a and
    b = +-1 are random.
    """
    out = []
    for i in range(count):
        s = rng.choice((1, 2, 3))
        x = _log_uniform(rng, lo, hi, i, count)
        p = check.next_prime(max(2, math.ceil(x ** (1 / s))))
        out.append((rng.choice((1, -1)) * p**s, rng.choice((1, -1))))
    return out


def _failure(exit_code: int, report: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    return None if report["verdict"] == "pass" else f"verdict {report['verdict']}"


class Workload:
    name = ""
    inputs: list  # one pass, in the order --seed gives

    def __init__(self, seed: int, out_path: str):
        self.rng = random.Random(seed)
        self.out_path = out_path

    @property
    def inputs_digest(self) -> str:
        return digest(sorted(self.inputs))

    def passes(self) -> Iterator[list]:
        while True:
            yield self.inputs

    def op(self, inp) -> Any:
        raise NotImplementedError

    def check_output(self, inp, out) -> Checked:
        raise NotImplementedError

    def describe(self, inp) -> str:
        return " ".join(str(v) for v in inp)

    def before_op(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def _cli(self, argv: list[str]) -> int:
        from compseq import cli

        return cli.main(argv + ["--json", "-o", self.out_path])

    def _read_output(self) -> tuple[dict, int]:
        with open(self.out_path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), len(raw)


class Grid(Workload):
    """construct(a, b) then verify_construction(result, 200) for every valid pair."""

    name = "grid"

    def __init__(self, seed, out_path, radius: int = GRID_RADIUS):
        super().__init__(seed, out_path)
        r = range(-radius, radius + 1)
        self.inputs = [(a, b) for a in r for b in r if b != 0 and not (b == -1 and abs(a) == 2)]
        self.rng.shuffle(self.inputs)

    def op(self, inp):
        from compseq import constructor, verifier

        result = constructor.construct(*inp)
        return result, verifier.verify_construction(result, GRID_TERMS)

    def check_output(self, inp, out):
        result, report = out
        a, b = inp
        x0, x1 = result.seed.x0, result.seed.x1
        problems = check.check_certificates(a, b, x0, x1, GRID_TERMS, check.certs_from_report(report))
        if (report.params.a, report.params.b, report.seed) != (a, b, result.seed):
            problems.append("report is not about the constructed seeds")
        return Checked(problems, None if report.verdict else "verdict fail", (x0, x1))


class DeepVerify(Workload):
    """compseq verify, with no construction hints, on long covering sequences."""

    name = "deep_verify"

    def __init__(
        self,
        seed,
        out_path,
        vsemirnov_terms: int = VSEMIRNOV_TERMS,
        covering_seeds=COVERING_SEEDS,
        target_bits: int = TARGET_BITS,
    ):
        super().__init__(seed, out_path)
        from compseq import constructor

        v0, v1 = VSEMIRNOV
        inputs = [(1, 1, v0, v1, vsemirnov_terms), (-1, 1, v0 - v1, v0, vsemirnov_terms)]
        pool = random.Random(POOL_SEED)
        for b, count in covering_seeds:
            for i in range(count):
                p = check.next_prime(math.ceil(_log_uniform(pool, *COVERING_A_RANGE, i, count)))
                a = pool.choice((1, -1)) * p
                seeds = constructor.construct(a, b).seed
                n = check.first_index_with_bits(a, b, seeds.x0, seeds.x1, target_bits, 10**5)
                inputs.append((a, b, seeds.x0, seeds.x1, n))
        self.rng.shuffle(inputs)
        self.inputs = inputs

    def op(self, inp):
        a, b, x0, x1, n = inp
        return self._cli(
            ["verify", "-a", str(a), "-b", str(b), "--x0", str(x0), "--x1", str(x1), "--terms", str(n)]
        )

    def check_output(self, inp, out):
        a, b, x0, x1, n = inp
        report, size = self._read_output()
        problems = check.check_certificates(a, b, x0, x1, n, check.certs_from_json(report))
        return Checked(problems, _failure(out, report), (x0, x1), size)


class ConstructCover(Workload):
    """compseq construct at the default 200 terms for prime powers |a|, b = +-1."""

    name = "construct_cover"

    def __init__(self, seed, out_path, draws: int = COVER_DRAWS):
        super().__init__(seed, out_path)
        self.inputs = prime_power_draws(random.Random(POOL_SEED), *COVER_A_RANGE, draws)
        self.rng.shuffle(self.inputs)

    def op(self, inp):
        a, b = inp
        return self._cli(["construct", "-a", str(a), "-b", str(b)])

    def check_output(self, inp, out):
        a, b = inp
        payload, size = self._read_output()
        report = payload["report"]
        x0, x1 = int(payload["x0"]["value"]), int(payload["x1"]["value"])
        problems = check.check_certificates(
            a, b, x0, x1, report["horizon"], check.certs_from_json(report)
        )
        if report["horizon"] != CONSTRUCT_TERMS:
            problems.append(f"horizon {report['horizon']} != {CONSTRUCT_TERMS}")
        if (report["params"], report["seed"]) != ({"a": a, "b": b}, {"x0": str(x0), "x1": str(x1)}):
            problems.append("report is not about the constructed seeds")
        return Checked(problems, _failure(out, report), (x0, x1), size)


class ConstructCoverWide(ConstructCover):
    """construct_cover over [1e3, 1e15], with fresh seeded draws every pass.

    About one draw in 150 to 450 raises EffortExceeded after 11 to 14 s and
    about one in 100 takes over a second; each failure is listed by input.
    """

    name = "construct_cover_wide"

    def __init__(self, seed, out_path, draws: int = WIDE_DRAWS, trace_draws: int = WIDE_TRACE_DRAWS):
        Workload.__init__(self, seed, out_path)
        self.draws = draws
        self.inputs = self._draw(trace_draws)

    def _draw(self, count):
        draws = prime_power_draws(self.rng, *WIDE_A_RANGE, count)
        self.rng.shuffle(draws)
        return draws

    def passes(self):
        yield self.inputs
        while True:
            yield self._draw(self.draws)


WORKLOADS = {w.name: w for w in (Grid, DeepVerify, ConstructCover, ConstructCoverWide)}
