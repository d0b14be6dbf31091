import dataclasses
import json
import math

import pytest

from compseq import arith
from compseq import constructor as C
from compseq.arith import (
    MR_DETERMINISTIC_BOUND,
    SCREEN_BOUND,
    Divisor,
    MillerRabinBase,
    NotComposite,
    _strong_probable_prime,
    small_primes,
)
from compseq.covering import Rule
from compseq.recurrence import RecurrenceParams, SeedPair, terms
from compseq.verifier import audit_table1, verify, verify_construction


class TestVerify:
    def test_miller_rabin_runs_only_on_terms_past_the_small_prime_screen(self, monkeypatch):
        # A count, not a timing: one strong test per term that no d in
        # 2..SCREEN_BOUND divides, and none on terms a small prime divides.
        calls = []

        def counting(n, base):
            calls.append(n)
            return _strong_probable_prime(n, base)

        monkeypatch.setattr(arith, "_strong_probable_prime", counting)
        params, seed = RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR)
        report = verify(params, seed, 300)
        xs = terms(params, seed, 300)
        unscreened = [x for x in xs if all(x % d for d in range(2, SCREEN_BOUND + 1))]
        assert report.verdict
        assert len(calls) == len(unscreened)

    def test_miller_rabin_above_the_bound_runs_only_past_trial_division(self, monkeypatch):
        # A count, not a timing: above MR_DETERMINISTIC_BOUND one strong test
        # (base 2) per term that no prime <= 10**6 divides, and none on terms
        # that trial division certifies.
        params, seed = RecurrenceParams(1174571, 1), C.construct(1174571, 1).seed
        calls = []

        def counting(n, base):
            calls.append(n)
            return _strong_probable_prime(n, base)

        monkeypatch.setattr(arith, "_strong_probable_prime", counting)
        report = verify(params, seed, 102)
        small = math.prod(small_primes(10**6))
        big = [abs(x) for x in terms(params, seed, 102) if abs(x) >= MR_DETERMINISTIC_BOUND]
        assert report.verdict
        assert sum(n >= MR_DETERMINISTIC_BOUND for n in calls) == sum(math.gcd(x, small) == 1 for x in big)

    def test_worked_example_with_covering_pattern(self):
        r = C.construct(-9, -1)
        report = verify_construction(r, 100)
        assert report.verdict
        assert report.covering_law_ok
        xs = terms(r.params, r.seed, 100)
        for n in range(101):
            if n % 2 == 0:
                assert xs[n] % 3 == 0
            if n % 6 == 1:
                assert xs[n] % 2 == 0
            if n % 6 == 3:
                assert xs[n] % 5 == 0
            if n % 6 == 5:
                assert xs[n] % 13 == 0

    def test_fibonacci_seeds_fail_at_zero(self):
        report = verify(RecurrenceParams(1, 1), SeedPair(0, 1), 12)
        assert not report.verdict
        assert report.first_failure_index == 0

    def test_period_six_passes(self):
        report = verify(RecurrenceParams(1, -1), SeedPair(8, 35), 50)
        assert report.verdict

    def test_non_coprime_seeds_fail(self):
        report = verify(RecurrenceParams(3, 2), SeedPair(6, 9), 5)
        assert not report.verdict
        assert not report.coprime_ok

    def test_certificate_count(self):
        report = verify(RecurrenceParams(-9, -1), SeedPair(105, 134), 40)
        assert len(report.certificates) == 41

    def test_certificates_recheckable(self):
        for a, b in [(-9, -1), (8, 1), (1, 1)]:
            r = C.construct(a, b)
            report = verify_construction(r, 60)
            assert report.verdict
            for cert in report.certificates:
                t = abs(cert.term)
                if isinstance(cert.witness, Divisor):
                    assert 1 < cert.witness.d < t
                    assert t % cert.witness.d == 0
                elif isinstance(cert.witness, MillerRabinBase):
                    assert not _strong_probable_prime(t, cert.witness.base)
                else:
                    raise AssertionError("passing report holds a NotComposite")

    def test_vsemirnov_certificates(self):
        # the record pair works via small covering primes, so every term
        # gets a divisor witness despite its size
        r = C.construct(1, 1)
        report = verify_construction(r, 150)
        assert report.verdict
        assert all(isinstance(c.witness, Divisor) for c in report.certificates)

    def test_mr_witness_fallback(self):
        # a term with no factor below the trial bound forces an MR witness
        import sympy

        p = sympy.nextprime(10**9)
        q = sympy.nextprime(2 * 10**9)
        report = verify(RecurrenceParams(1, 1), SeedPair(4, p * q), 1)
        assert report.verdict
        assert isinstance(report.certificates[1].witness, MillerRabinBase)

    def test_covering_audit_flags_bad_triples(self):
        r = C.construct(8, 1)
        tset = C.TripleSet.of([(2, 2, 0), (3, 4, 1)], 8, 1)
        broken = C.ConstructionResult(
            r.params,
            r.seed,
            r.strategy,
            tset.rules(),
            C.Support(tset, r.support.P, r.support.y, r.support.z),
        )
        report = verify(r.params, r.seed, 30, construction=broken)
        assert report.covering_law_ok is False
        assert not report.verdict


# One pair per strategy that states divisor rules.
STRATEGY_PAIRS = {
    C.A_ZERO: (0, 7),
    C.DEGENERATE_DISC: (4, -4),
    C.CASE_I: (7, 3),
    C.CASE_II: (2, 4),
    C.CASE_IIIA: (1, 3),
    C.CASE_IIIB: (3, 3),
    C.CASE_IIIC: (2, 5),
    C.TWO_PRIME_FACTORS: (6, 1),
    C.COVERING_CRT: (-9, -1),
    C.TABLE1_STRATEGY: (5, 1),
    C.PERIODIC3: (-1, -1),
    C.PERIODIC6: (1, -1),
}


class TestRuleAudit:
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_PAIRS))
    def test_rules_certify_every_term(self, strategy):
        r = C.construct(*STRATEGY_PAIRS[strategy])
        assert r.strategy == strategy
        report = verify_construction(r, 200)
        assert report.covering_law_ok is True
        divisors = {rule.d for rule in r.rules}
        for cert in report.certificates:
            assert isinstance(cert.witness, Divisor), cert
            assert cert.witness.d in divisors, cert

    @pytest.mark.parametrize(
        "rules",
        [
            ((8, 0, 0), (5, 1, 1)),  # tail divisor 5 instead of 3
            ((3, 1, 1),),  # index 0 unclaimed
        ],
    )
    def test_broken_rules_fail_the_audit(self, rules):
        r = C.construct(7, 3)
        assert r.rules == (Rule(8, 0, 0), Rule(3, 1, 1))
        broken = dataclasses.replace(r, rules=tuple(Rule(*rule) for rule in rules))
        report = verify_construction(broken, 50)
        assert report.covering_law_ok is False
        assert not report.verdict


class TestReportSerialization:
    def test_json_round_trip(self):
        r = C.construct(8, 1)
        report = verify_construction(r, 30)
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["verdict"] == "pass"
        assert d["P"] == 66 and d["y"] == 56 and d["z"] == 63
        assert d["certificates"][0]["n"] == 0
        assert d["certificates"][0]["term"] == "56"
        assert d["certificates"][0]["term_digits"] == 2

    def test_schema_fields(self):
        report = verify(RecurrenceParams(1, -1), SeedPair(8, 35), 10)
        d = report.to_dict()
        for key in ("params", "seed", "horizon", "verdict", "failures", "certificates"):
            assert key in d


class TestAuditTable1:
    def test_all_rows(self):
        rows = audit_table1(100)
        assert len(rows) == 10
        for row in rows:
            assert row.triples_valid, (row.a, row.b)
            assert row.paper_report.verdict, (row.a, row.b)
            assert row.covering_law_ok, (row.a, row.b)

    def test_ordering_anomaly_recorded(self):
        rows = {(r.a, r.b): r for r in audit_table1(20)}
        assert rows[(3, -1)].anomalies
        assert not rows[(-3, -1)].anomalies
        assert not rows[(5, 1)].anomalies

    def test_example_rows(self):
        rows = {(r.a, r.b): r for r in audit_table1(100)}
        assert rows[(5, 1)].paper_seed == SeedPair(495, 1136)
        assert rows[(-4, 1)].paper_seed == SeedPair(116, 801)


def test_grid_round_trip_sample():
    for a in range(-12, 13):
        for b in range(-6, 7):
            if b == 0 or (abs(a), b) == (2, -1):
                continue
            r = C.construct(a, b)
            report = verify_construction(r, 120)
            assert report.verdict, (a, b, report.failures)
            assert math.gcd(r.seed.x0, r.seed.x1) == 1
