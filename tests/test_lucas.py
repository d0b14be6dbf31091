import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from compseq import arith
from compseq.arith import TRIAL_BOUND, Divisor, small_primes
from compseq.lucas import LucasContext, composite_scan, conjecture_scan
from compseq.recurrence import RecurrenceParams
from oracles import check_divisibility, rank_of_apparition


def ctx_of(a, b):
    return LucasContext(RecurrenceParams(a, b))


class TestTerms:
    def test_initial_values(self):
        for a, b in [(1, 1), (3, -1), (-9, -1), (7, 2)]:
            ctx = ctx_of(a, b)
            assert ctx.u(0) == 0
            assert ctx.u(1) == 1

    def test_u4_u6_closed_forms(self):
        for a in range(-10, 11):
            for b in range(-10, 11):
                if b == 0:
                    continue
                ctx = ctx_of(a, b)
                assert ctx.u(4) == a * (a * a + 2 * b)
                assert ctx.u(6) == a * (a * a + b) * (a * a + 3 * b)

    def test_specific_value(self):
        assert ctx_of(3, -1).u(8) == 987  # 3 * 7 * 47

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            ctx_of(5, 0)

    def test_far_term_keeps_no_earlier_terms(self):
        # Holding u_0..u_n would take Theta(n^2) bits; the walk keeps two terms.
        tracemalloc.start()
        try:
            result = ctx_of(3, -1).u(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * sys.getsizeof(result), (peak, sys.getsizeof(result))

    def test_concurrent_reads_consistent(self):
        ctx = ctx_of(3, -1)
        expected = [ctx_of(3, -1).u(n) for n in range(300)]
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(ctx.u, range(300)))
        assert got == expected


class TestDivisibility:
    def test_fibonacci(self):
        assert check_divisibility(ctx_of(1, 1), 5, 10)

    def test_a3_bminus1(self):
        ctx = ctx_of(3, -1)
        assert ctx.u(4) == 21
        assert check_divisibility(ctx, 4, 8)

    def test_counterexample_when_index_not_divisible(self):
        assert not check_divisibility(ctx_of(9, 1), 2, 3)

    def test_divisibility_sequence_grid(self):
        for a in range(-10, 11):
            for b in range(-10, 11):
                if b == 0:
                    continue
                ctx = ctx_of(a, b)
                for n in range(1, 49):
                    for m in range(1, n + 1):
                        if n % m == 0:
                            assert check_divisibility(ctx, m, n), (a, b, m, n)

    def test_consecutive_coprimality_unit_b(self):
        for a in range(-10, 11):
            for b in (-1, 1):
                ctx = ctx_of(a, b)
                for n in range(200):
                    assert math.gcd(ctx.u(n), ctx.u(n + 1)) == 1


class TestRank:
    def test_fibonacci_p2(self):
        assert rank_of_apparition(ctx_of(1, 1), 2) == 3

    def test_a3_bminus1(self):
        ctx = ctx_of(3, -1)
        assert rank_of_apparition(ctx, 47) == 8
        assert rank_of_apparition(ctx, 1103) == 24

    def test_rank_characterizes_divisibility_unit_b(self):
        for a in (1, 3, -4, 9):
            for b in (-1, 1, -2, 2, -3, 3, 5):
                ctx = ctx_of(a, b)
                for p in small_primes(100):
                    if b % p == 0:
                        continue
                    rank = rank_of_apparition(ctx, p)
                    assert rank <= p + 1, (a, b, p)
                    for n in range(1, 201):
                        divides = ctx.u(n) % p == 0
                        assert divides == (n % rank == 0), (a, b, p, n)


class TestScans:
    def test_a3_scan(self):
        report = composite_scan(3, 30)
        assert not report.violations
        by_n = {e.index: e for e in report.entries}
        assert by_n[3].term == 8 and by_n[3].witness.d == 2
        assert by_n[4].term == 21 and by_n[4].witness.d == 3

    def test_scan_asks_only_for_the_trial_primes(self, monkeypatch):
        # u_43 has no prime <= 4096, so its witness walks past the screen to
        # 6709; the scan asks for one list of primes, the trial primes up to
        # TRIAL_BOUND, and no other.
        sieved = []
        monkeypatch.setattr(arith, "small_primes", lambda limit: sieved.append(limit) or small_primes(limit))
        arith._gcd_table.cache_clear()  # built once per bound: rebuild it under the patch
        report = composite_scan(3, 300)
        assert report.entries[43 - 3].witness == Divisor(6709)
        assert sieved and set(sieved) == {TRIAL_BOUND}

    def test_negative_a_scan(self):
        assert not composite_scan(-5, 30).violations

    def test_empty_range(self):
        assert composite_scan(3, 2).entries == ()

    def test_small_a_rejected(self):
        with pytest.raises(ValueError):
            composite_scan(2, 10)

    def test_conjecture_no_violations(self):
        assert conjecture_scan([3], 13) == []
        assert conjecture_scan(range(3, 11), 31) == []
