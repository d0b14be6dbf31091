"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line with its runtime when the
assertions hold.
"""

import math
import time

from compseq import constructor as C
from compseq.lucas import LucasContext, composite_scan, conjecture_scan
from compseq.recurrence import RecurrenceParams, SeedPair, terms
from compseq.verifier import audit_table1, verify_construction
from oracles import is_square, is_strictly_growing, lemma1_residual, square_gap_holds


def report(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_1_worked_examples():
    started = time.monotonic()
    expected = {
        (-9, -1): (390, 105, 134, 105, 134),
        (8, 1): (66, 56, 63, 56, 129),
        (-49, 1): (1869, 980, 1464, 980, 3333),
        (9, 1): (1722, 1107, 1444, 1107, 1444),
    }
    for (a, b), (P, y, z, x0, x1) in expected.items():
        r = C.construct(a, b)
        assert (r.support.P, r.support.y, r.support.z) == (P, y, z), (a, b)
        assert (r.seed.x0, r.seed.x1) == (x0, x1), (a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report("1 worked-example reproduction", started)


def test_criterion_2_table1_audit():
    started = time.monotonic()
    rows = audit_table1(100)
    assert len(rows) == 10
    for row in rows:
        assert row.triples_valid, row.report.params
        assert row.report.verdict, row.report.params
    anomalies = [(r.report.params.a, r.report.params.b) for r in rows if r.anomalies]
    assert anomalies == [(3, -1)]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("2 Table 1 audit", started)


def test_criterion_3_grid_round_trip():
    started = time.monotonic()
    for a in range(-30, 31):
        for b in range(-30, 31):
            if b == 0 or (abs(a), b) == (2, -1):
                continue
            r = C.construct(a, b)
            rep = verify_construction(r, 200)
            assert rep.verdict, (a, b, rep.failures[:2])
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report("3 grid round-trip", started)


def test_criterion_4_vsemirnov():
    started = time.monotonic()
    r = C.construct(1, 1)
    assert (r.seed.x0, r.seed.x1) == (106276436867, 35256392432)
    rep = verify_construction(r, 150)
    assert rep.verdict

    rr = C.construct(-1, 1)
    xs = terms(rr.params, rr.seed, 150)
    vs = terms(RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR), 150)
    for n in range(1, 151):
        assert abs(xs[n]) == vs[n - 1]
    report("4 Vsemirnov pair and reflection", started)


def test_criterion_5_property_suites():
    started = time.monotonic()
    import random

    rng = random.Random(42)
    for _ in range(10**4):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50) or 1
        x0 = rng.randint(-(10**6), 10**6)
        x1 = rng.randint(-(10**6), 10**6)
        n = rng.randint(0, 60)
        assert lemma1_residual(RecurrenceParams(a, b), SeedPair(x0, x1), n) == 0

    for _ in range(300):
        b = rng.choice([x for x in range(-10, 11) if x != 0])
        a = rng.choice([x for x in range(-12, 13) if abs(x) > abs(b)])
        x0 = rng.choice([x for x in range(-30, 31) if x != 0])
        x1 = rng.choice([x for x in range(-40, 41) if abs(x) > abs(x0)])
        assert is_strictly_growing(RecurrenceParams(a, b), SeedPair(x0, x1), 60)

    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0:
                continue
            ctx = LucasContext(RecurrenceParams(a, b))
            for n in range(1, 49):
                um, un = ctx.u(n), None
                for m in range(1, n + 1):
                    if n % m == 0:
                        um = ctx.u(m)
                        un = ctx.u(n)
                        assert (un == 0) if um == 0 else (un % um == 0)

    for a in range(-10, 11):
        for b in (-1, 1):
            ctx = LucasContext(RecurrenceParams(a, b))
            for n in range(200):
                assert math.gcd(ctx.u(n), ctx.u(n + 1)) == 1

    for b in range(-50, 51):
        if abs(b) < 2:
            continue
        for a in range(-abs(b), abs(b) + 1):
            if a == 0 or a * a + 4 * b == 0:
                continue
            assert square_gap_holds(a, b)
            mid = 16 * b**8 + 8 * a * b**5 - 8 * b**4 - 4 * b**3 - 2 * a * b + 1
            assert not is_square(mid)
    report("5 property suites", started)


def test_criterion_6_section6_theorem_and_conjecture():
    started = time.monotonic()
    for mag in range(3, 51):
        for a in (mag, -mag):
            rep = composite_scan(a, 60)
            assert not rep.violations, (a, [e.index for e in rep.violations])

    a_values = [a for a in range(-20, 21) if abs(a) >= 3]
    violations = conjecture_scan(a_values, 97)
    if violations:
        # a violation would be a counterexample worth publishing, not a bug
        print(f"ACCEPTANCE 6: conjecture counterexamples found: {violations}")
    else:
        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        report("6 composite Lucas scan and conjecture", started)
