import dataclasses
import decimal
import json
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import certificate_holds, reference_rule_audit

from compseq import arith, recurrence, verifier
from compseq import constructor as C
from compseq.arith import (
    MR_DETERMINISTIC_BOUND,
    SCREEN_BOUND,
    TRIAL_BOUND,
    Divisor,
    MillerRabinBase,
    NotComposite,
    _strong_probable_prime,
    small_primes,
)
from compseq.covering import Rule, discover_rules
from compseq.recurrence import RecurrenceParams, SeedPair, decimal_texts, iter_terms, terms
from compseq.verifier import (
    CERTIFICATE_BLOCK,
    CompositenessCertificate,
    OutputTooLarge,
    VerificationReport,
    audit_table1,
    decimal_digits,
    verify,
    verify_construction,
)


# 1000003 and nextprime(MR_DETERMINISTIC_BOUND): two primes past trial division.
BIG_P, BIG_Q = 1000003, 3317044064679887385962123


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

    @pytest.mark.parametrize(
        "params, seed, n_terms, tested",
        [
            (RecurrenceParams(1174571, 1), C.construct(1174571, 1).seed, 102, 0),
            # x_n = x_{n-2} = P * Q for even n, so their common factor is the
            # whole term and n = 0, 2, 4 each take a base-2 test.
            (RecurrenceParams(0, 1), SeedPair(BIG_P * BIG_Q, 15), 4, 3),
        ],
        ids=["1174571", "a=0"],
    )
    def test_miller_rabin_above_the_bound_runs_only_past_trial_division(
        self, monkeypatch, params, seed, n_terms, tested
    ):
        # A count, not a timing: above MR_DETERMINISTIC_BOUND one strong test
        # (base 2) per term that no prime <= TRIAL_BOUND divides and whose
        # gcd with x_{n-2} (0 for n < 2) is 1 or the whole term, and none on
        # terms that trial division or that gcd certifies.
        calls = []

        def counting(n, base):
            calls.append(n)
            return _strong_probable_prime(n, base)

        monkeypatch.setattr(arith, "_strong_probable_prime", counting)
        report = verify(params, seed, n_terms)
        small = math.prod(small_primes(TRIAL_BOUND))
        xs = [abs(x) for x in terms(params, seed, n_terms)]
        expected = sum(
            x >= MR_DETERMINISTIC_BOUND and math.gcd(x, small) == 1 and math.gcd(x, xs[n - 2] if n >= 2 else 0) in (1, x)
            for n, x in enumerate(xs)
        )
        assert report.verdict
        assert sum(n >= MR_DETERMINISTIC_BOUND for n in calls) == expected == tested

    @pytest.mark.parametrize("a", [1174571, 45193283])
    def test_terms_past_trial_division_take_their_common_factor_with_x_n_minus_2(self, monkeypatch, a):
        # x_n = b*x_{n-2} (mod a), so with a | x_0 every even term shares the
        # prime |a| > 10**6 with the one two before it.  A term that no prime
        # <= SCREEN_BOUND divides gets Divisor(|a|); every other term gets its
        # hintless witness, a prime <= SCREEN_BOUND.  verify asks for one list
        # of primes, the trial primes up to TRIAL_BOUND, and no other.  The
        # covering seeds would give verify rules of their own (Rule(|a|, 0, 2)
        # among them), so discovery is patched out to reach the screen.
        params, seed = RecurrenceParams(a, 1), C.construct(a, 1).seed
        n_terms = next(n for n, x in enumerate(terms(params, seed, 200)) if abs(x).bit_length() >= 2048)
        monkeypatch.setattr(verifier, "discover_rules", lambda xs: ())
        sieved = []
        with monkeypatch.context() as mp:
            mp.setattr(arith, "small_primes", lambda limit: sieved.append(limit) or small_primes(limit))
            arith._gcd_table.cache_clear()  # built once per bound: rebuild it under the patch
            report = verify(params, seed, n_terms)
        assert sieved and set(sieved) == {TRIAL_BOUND}
        assert report.verdict
        xs = terms(params, seed, n_terms)
        screen = small_primes(SCREEN_BOUND)
        changed = 0
        for n, cert in enumerate(report.certificates):
            expected = arith.compositeness_witness(xs[n])
            if all(xs[n] % p for p in screen):
                assert not isinstance(expected, Divisor) or expected.d > SCREEN_BOUND
                expected = Divisor(abs(a))
                changed += 1
            assert cert.witness == expected, n
        assert changed > 0

    def test_each_large_term_is_screened_once(self, monkeypatch):
        # A count: verify screens the terms at or above MR_DETERMINISTIC_BOUND
        # in one bulk walk of the screen's primes, and hands those it leaves
        # to witness_past_screen, which walks the screen no second time.
        # Discovery is patched out, as its rules would claim every term.
        monkeypatch.setattr(verifier, "discover_rules", lambda xs: ())
        params, seed = RecurrenceParams(1174571, 1), C.construct(1174571, 1).seed
        xs = terms(params, seed, 200)
        n_terms = next(n for n, x in enumerate(xs) if abs(x).bit_length() >= 2048)
        walked = []
        walk = arith._smallest_prime_divisors

        def counting(ms, limit):
            if limit == SCREEN_BOUND:
                walked.extend(map(abs, ms))
            return walk(ms, limit)

        monkeypatch.setattr(arith, "_smallest_prime_divisors", counting)
        report = verify(params, seed, n_terms)
        assert report.verdict
        large = [abs(x) for x in xs[: n_terms + 1] if abs(x) >= MR_DETERMINISTIC_BOUND]
        assert sum(isinstance(c.witness, Divisor) and c.witness.d > SCREEN_BOUND for c in report.certificates) > 0
        assert all(walked.count(x) == 1 for x in large)

    def test_a_term_that_reaches_the_walk_asks_only_for_the_trial_primes(self, monkeypatch):
        # x_0 = P * Q has no prime <= TRIAL_BOUND and no x_{-2}, so its
        # witness walks every trial prime before its base-2 test; verify asks
        # for one list of primes, the trial primes up to TRIAL_BOUND, and no
        # other.
        sieved = []
        monkeypatch.setattr(arith, "small_primes", lambda limit: sieved.append(limit) or small_primes(limit))
        arith._gcd_table.cache_clear()  # built once per bound: rebuild it under the patch
        report = verify(RecurrenceParams(0, 1), SeedPair(BIG_P * BIG_Q, 15), 4)
        assert report.certificates[0].witness == MillerRabinBase(2)
        assert sieved and set(sieved) == {TRIAL_BOUND}

    def test_the_first_two_terms_have_no_x_n_minus_2(self):
        # x_0 = P * Q has no prime <= TRIAL_BOUND, and x_4 = x_0 (mod P)
        # shares P with it; x_0 still gets its base-2 witness, because no
        # x_{-2} exists (the list's x_4 sits at index -2).
        params, seed = RecurrenceParams(BIG_P, 1), SeedPair(BIG_P * BIG_Q, 15)
        xs = terms(params, seed, 5)
        assert 1 < math.gcd(xs[0], xs[-2]) < xs[0]
        report = verify(params, seed, 5)
        assert report.verdict
        assert report.certificates[0].witness == MillerRabinBase(2) == arith.compositeness_witness(xs[0])

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
        assert next(c.index for c in report.certificates if isinstance(c.witness, NotComposite)) == 0

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
        rules = (Rule(2, 0, 2), Rule(3, 1, 4))  # triples (2, 2, 0), (3, 4, 1)
        broken = C.ConstructionResult(r.params, r.seed, r.strategy, rules, r.support)
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


# Published seed pairs for (a, b) = (1, 1), the horizon at which each is
# verified, and the period L of the rules discovery reads from its terms
# (None: no covering is found, so its pass holds only up to the horizon).
PUBLISHED_PAIRS = {
    # Graham, Math. Mag. 37 (1964).
    "graham": ((1786772701928802632268715130455793, 1059683225053915111058165141686995), 3000, None),
    # Knuth, Math. Mag. 63 (1990).
    "knuth": ((62638280004239857, 49463435743205655), 17280, 8640),
    # Wilf, Math. Mag. 63 (1990).
    "wilf": ((20615674205555510, 3794765361567513), 17280, 8640),
    # Nicol, Electron. J. Combin. 6 (1999).
    "nicol": ((407389224418, 76343678551), 4320, 2160),
}


@st.composite
def hintless_inputs(draw):
    """(params, seed, N) with |a|, |b| <= 30 and N <= 80: random seeds, 0
    and negative ones among them, or a construction's seeds, as they are,
    moved by one or scaled by a common factor."""
    a, b = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    x0, x1 = draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6))
    if b and (abs(a), b) != (2, -1) and draw(st.booleans()):
        seed = C.construct(a, b).seed
        k = draw(st.sampled_from((1, 1, 2, 3)))
        x0, x1 = k * seed.x0, k * seed.x1 + draw(st.sampled_from((0, 0, 1, -1)))
    return RecurrenceParams(a, b), SeedPair(x0, x1), draw(st.integers(0, 80))


class TestDiscoveredRules:
    @settings(max_examples=300, deadline=None)
    @given(inp=hintless_inputs())
    @example(inp=(RecurrenceParams(1, 1), SeedPair(0, 6), 30))
    @example(inp=(RecurrenceParams(-9, -1), SeedPair(210, 268), 40))
    @example(inp=(RecurrenceParams(3, -2), SeedPair(-4, 0), 20))
    def test_discovery_changes_only_the_witnesses_of_the_terms_it_claims(self, inp):
        # Hintless verify against itself with discovery patched out: the same
        # verdict, failures and coprimality, no covering_law_ok, and a changed
        # witness only on a term that a discovered rule claims; every
        # certificate holds by the oracle.
        params, seed, n = inp
        report = verify(params, seed, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "discover_rules", lambda xs: ())
            plain = verify(params, seed, n)
        assert (report.verdict, report.failures, report.coprime_ok) == (plain.verdict, plain.failures, plain.coprime_ok)
        assert report.covering_law_ok is plain.covering_law_ok is None
        rules = discover_rules(terms(params, seed, n))
        for cert, before in zip(report.certificates, plain.certificates, strict=True):
            assert (cert.index, cert.term) == (before.index, before.term)
            if cert.witness != before.witness:
                assert any(cert.witness == Divisor(d) and cert.index % k == s for d, s, k in rules)
            assert certificate_holds(cert.term, cert.witness)

    @pytest.mark.parametrize("name", ["knuth", "wilf", "nicol"])
    def test_published_coverings_claim_every_term(self, monkeypatch, name):
        (x0, x1), n, period = PUBLISHED_PAIRS[name]
        params, seed = RecurrenceParams(1, 1), SeedPair(x0, x1)
        rules = discover_rules(terms(params, seed, n))
        assert math.lcm(*(rule.step for rule in rules)) == period and len(rules) == 18

        def refuse(*args):
            raise AssertionError("a term took the per-term path")

        for path in ("screen", "witness_past_screen", "compositeness_witness"):
            monkeypatch.setattr(verifier, path, refuse)
        report = verify(params, seed, n)
        assert report.verdict and report.covering_law_ok is None
        for cert in report.certificates:
            d = next(d for d, s, k in rules if cert.index % k == s)
            assert cert.witness == Divisor(d)

    def test_graham_is_verified_to_its_horizon_only(self):
        (x0, x1), n, period = PUBLISHED_PAIRS["graham"]
        params, seed = RecurrenceParams(1, 1), SeedPair(x0, x1)
        assert period is None and discover_rules(terms(params, seed, n)) == ()
        report = verify(params, seed, n)
        assert report.verdict
        assert sum(isinstance(c.witness, MillerRabinBase) for c in report.certificates) == 4

    def test_improper_discovered_rules_are_dropped(self):
        # x_n = x_{n-2}: the rules at L = 2 have the whole terms x_0 and 15
        # as divisors, so both fail the audit, add no failure, and every
        # term keeps the witness it had without them.
        params, seed = RecurrenceParams(0, 1), SeedPair(BIG_P * BIG_Q, 15)
        assert discover_rules(terms(params, seed, 6)) == (Rule(BIG_P * BIG_Q, 0, 2), Rule(15, 1, 2))
        report = verify(params, seed, 6)
        assert report.verdict and report.failures == () and report.covering_law_ok is None
        assert [c.witness for c in report.certificates] == [MillerRabinBase(2), Divisor(3)] * 3 + [MillerRabinBase(2)]

    def test_a_rule_with_an_improper_term_certifies_the_terms_it_properly_divides(self):
        # x_1 = 6 is the whole divisor of the discovered Rule(6, 1, 3), which
        # properly divides x_4, x_7, ...  It adds no failure and keeps 6 on
        # those terms; without it, the even ones (x_4, x_10, ...; Rule(2, 1, 2)
        # claims the odd ones first) take the screen's 2.
        params, seed = RecurrenceParams(1, 2), SeedPair(49, 6)
        rules = discover_rules(terms(params, seed, 200))
        assert Rule(6, 1, 3) in rules and terms(params, seed, 1)[1] == 6
        report = verify(params, seed, 200)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "discover_rules", lambda xs: tuple(r for r in rules if r != Rule(6, 1, 3)))
            without = verify(params, seed, 200)
        assert (report.verdict, report.failures) == (without.verdict, without.failures) == (True, ())
        moved = [c.index for c, w in zip(report.certificates, without.certificates) if c.witness != w.witness]
        assert moved == list(range(4, 201, 6)) and len(moved) == 33
        assert {report.certificates[n].witness for n in moved} == {Divisor(6)}
        assert {without.certificates[n].witness for n in moved} == {Divisor(2)}

    def test_seeds_moved_by_one_can_keep_a_covering(self, monkeypatch):
        # x0 of construct(-1511, -1) minus 1: these seeds are coprime too, and
        # the rules read from their terms, with period 3 where the
        # construction's have period 6, claim every term.
        params, seed = RecurrenceParams(-1511, -1), SeedPair(37774, 48351)
        assert C.construct(-1511, -1).seed == SeedPair(37775, 48351)
        rules = discover_rules(terms(params, seed, 194))
        assert rules == (Rule(2, 0, 3), Rule(3, 1, 3), Rule(35, 2, 3))

        def refuse(*args):
            raise AssertionError("a term took the per-term path")

        for path in ("screen", "witness_past_screen", "compositeness_witness"):
            monkeypatch.setattr(verifier, path, refuse)
        report = verify(params, seed, 194)
        assert report.verdict and report.coprime_ok and report.covering_law_ok is None
        assert [c.witness for c in report.certificates] == [Divisor(rules[n % 3].d) for n in range(195)]

    def test_terms_without_a_covering_take_their_common_factor_with_x_n_minus_2(self):
        # 1174571 | x_0, so it divides every even term; the odd terms share
        # no prime at any stride, so no rule is found.  x_40, which no prime
        # <= SCREEN_BOUND divides, gets |a| before its trial prime 14731.
        params, seed = RecurrenceParams(1174571, 1), SeedPair(2349142, 341)
        xs = terms(params, seed, 102)
        assert discover_rules(xs) == ()
        assert all(xs[40] % p for p in small_primes(SCREEN_BOUND)) and xs[40] % 14731 == 0
        report = verify(params, seed, 102)
        assert report.verdict
        assert report.certificates[40].witness == Divisor(1174571)


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

    def test_rules_that_claim_every_term_leave_no_term_to_screen(self, monkeypatch):
        # A count: where the rules claim every index, as on the grid, verify
        # calls neither the bulk screen nor either witness step.
        calls = []
        monkeypatch.setattr(verifier, "screen", lambda *args: calls.append(args))
        monkeypatch.setattr(verifier, "witness_past_screen", lambda *args: calls.append(args))
        monkeypatch.setattr(verifier, "compositeness_witness", lambda *args: calls.append(args))
        for a, b in sorted(STRATEGY_PAIRS.values()):
            report = verify_construction(C.construct(a, b), 200)
            assert report.verdict and report.covering_law_ok is True
        assert calls == []

    @pytest.mark.parametrize(
        "rules",
        [
            ((8, 0, 0), (5, 1, 1)),  # tail divisor 5 instead of 3
            ((3, 1, 1),),  # index 0 unclaimed
            ((8, 0, 0), (3, 1, 1), (3, -1, 0)),  # negative start
            ((8, 0, 0), (3, 1, 1), (3, 60, -1)),  # negative step
        ],
    )
    def test_broken_rules_fail_the_audit(self, rules):
        r = C.construct(7, 3)
        assert r.rules == (Rule(8, 0, 0), Rule(3, 1, 1))
        broken = dataclasses.replace(r, rules=tuple(Rule(*rule) for rule in rules))
        report = verify_construction(broken, 50)
        assert report.covering_law_ok is False
        assert not report.verdict


class CountingInt(int):
    """An int that counts the abs and % taken of it."""

    ops = 0

    def __abs__(self):
        CountingInt.ops += 1
        return int.__abs__(self)

    def __mod__(self, other):
        CountingInt.ops += 1
        return int.__mod__(self, other)


def assert_audit_matches_reference(params, seed, n, construction):
    """verify agrees with reference_rule_audit, the audit term by term: the
    failure texts in order, every certificate, and covering_law_ok.  Without
    stated rules, the discovered ones take the same audit but add no failure
    and claim no index."""
    report = verify(params, seed, n, construction)
    xs = terms(params, seed, n)
    rules = construction.rules if construction is not None else ()
    rule_failures, divisors, claimed = reference_rule_audit(xs, rules or discover_rules(xs))
    failures = []
    if math.gcd(seed.x0, seed.x1) != 1:
        failures.append(f"gcd(x0, x1) = {math.gcd(seed.x0, seed.x1)} != 1")
    failures += ["x0 not positive"] * (seed.x0 <= 0) + ["x1 not positive"] * (seed.x1 <= 0)
    if rules:
        failures += rule_failures
        failures += [f"index {i} not claimed by any rule" for i in range(n + 1) if not claimed[i]]
    certificates = []
    for i, x in enumerate(xs):
        witness = divisors[i]
        if witness is None:
            witness = arith.compositeness_witness(x, xs[i - 2] if i >= 2 else 0)
        if isinstance(witness, NotComposite):
            failures.append(f"|x_{i}| = {abs(x)} is not composite")
        certificates.append((i, x, witness))
    assert list(report.failures) == failures
    assert list(report.certificates) == certificates
    expected_law = (not rule_failures and all(claimed)) if rules else None
    assert report.covering_law_ok is expected_law
    assert report.verdict == (not failures)


def edit_rule(rule, edit, n):
    """One of the rule edits the reference test draws."""
    d, start, step = rule
    return {
        "keep": rule,
        "d+1": Rule(d + 1, start, step),
        "d-1": Rule(d - 1, start, step),
        "d*k": Rule(d * (step + 2), start, step),
        "-d": Rule(-d, start, step),
        "d=0": Rule(0, start, step),
        "d=1": Rule(1, start, step),
        "start+1": Rule(d, start + 1, step),
        "start past N": Rule(d, n + 1 + start, step),
        "step*2": Rule(d, start, 2 * step),
        "step=0": Rule(d, start, 0),
        "start<0": Rule(d, -1 - start, step),
        "step<0": Rule(d, start, -1 - step),
    }[edit]


RULE_EDITS = ("keep", "d+1", "d-1", "d*k", "-d", "d=0", "d=1", "start+1", "start past N")
RULE_EDITS += ("step*2", "step=0", "start<0", "step<0")


class TestRuleAuditAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.none() | st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
        st.integers(0, 80),
        st.lists(st.tuples(st.integers(0, 9), st.sampled_from(RULE_EDITS)), max_size=3),
        st.booleans(),
        st.lists(st.integers(0, 9), max_size=2),
    )
    # A Vsemirnov construction states no rules: on these seeds the discovered
    # Rule(3, 0, 1) claims x_0 = 0 and x_1 = 3, and certifies x_3 = 6 by 3.
    @example(1, 1, (0, 3), 3, [], False, [])
    def test_verify_matches_the_audit_term_by_term(self, a, b, seeds, n, edits, reverse, duplicates):
        assume((abs(a), b) != (2, -1))
        construction = C.construct(a, b)
        rules = list(construction.rules)
        for at, edit in edits:
            if rules:
                rules[at % len(rules)] = edit_rule(rules[at % len(rules)], edit, n)
        rules += [rules[at % len(rules)] for at in duplicates if rules]
        if reverse:
            rules.reverse()
        construction = dataclasses.replace(construction, rules=tuple(rules))
        seed = SeedPair(*seeds) if seeds is not None else construction.seed
        assert_audit_matches_reference(construction.params, seed, n, construction)

    @pytest.mark.parametrize(
        "a, b, seed, rules",
        [
            # 3 | x_7 = 21 but not x_8 = 34 (x_n = F_{n+1}): x_s alone proves nothing.
            (1, 1, (1, 1), ((3, 7, 1),)),
            # 3 divides x_3, x_7, x_11, ... but x_3 = 3 is not a proper multiple.
            (1, 1, (1, 1), ((3, 3, 4), (2, 0, 1))),
            # x_n = 0 for every even n, 3 | x_n = +-6 for every odd n.
            (0, -1, (0, 6), ((3, 0, 2), (3, 1, 2))),
            # A step-0 rule, and a class with one term inside the horizon.
            (1, 1, (1, 1), ((3, 7, 0), (2, 11, 20), (4, 5, 50))),
        ],
        ids=["x_s-only", "term-equals-d", "zero-terms", "one-term"],
    )
    def test_rules_that_fail_past_their_first_terms(self, a, b, seed, rules):
        params = RecurrenceParams(a, b)
        construction = C.ConstructionResult(params, SeedPair(*seed), "hand", tuple(Rule(*r) for r in rules))
        for n in (0, 3, 7, 12, 40):
            assert_audit_matches_reference(params, construction.seed, n, construction)


class TestRuleAuditCost:
    @pytest.mark.parametrize("n_terms", [200, 2000])
    def test_a_rule_that_holds_takes_at_most_two_divisions(self, monkeypatch, n_terms):
        # A count: d | x_s and d | x_{s+step} prove the rest of the class, so
        # a rule that holds costs at most two abs or % on its terms, however
        # many terms it claims.
        monkeypatch.setattr(verifier, "terms", lambda *args: list(map(CountingInt, terms(*args))))
        for a, b in sorted(STRATEGY_PAIRS.values()):
            r = C.construct(a, b)
            CountingInt.ops = 0
            report = verify_construction(r, n_terms)
            assert report.verdict and report.covering_law_ok is True
            assert CountingInt.ops <= 2 * len(r.rules), (a, b)

    def test_the_first_rule_that_divides_a_term_gives_its_witness(self):
        # Table 1's rules for (2, 1) claim n = 0 mod 6 twice: by (2, 0, 2)
        # and by (5, 0, 3).
        r = C.construct(2, 1)
        assert r.rules[:2] == (Rule(2, 0, 2), Rule(5, 0, 3))
        for rules, d in ((r.rules, 2), (r.rules[::-1], 5)):
            report = verify_construction(dataclasses.replace(r, rules=rules), 200)
            assert report.verdict
            assert {report.certificates[n].witness for n in range(0, 201, 6)} == {Divisor(d)}


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


def reference_dict(report):
    """The report's JSON data built field by field, each term by str()."""
    c = report.construction
    d = {
        "params": {"a": report.params.a, "b": report.params.b},
        "seed": {"x0": str(report.seed.x0), "x1": str(report.seed.x1)},
        "horizon": report.horizon,
        "verdict": "pass" if report.verdict else "fail",
        "coprime_ok": report.coprime_ok,
        "failures": list(report.failures),
        "certificates": [
            {
                "n": cert.index,
                "term": str(cert.term),
                "term_digits": len(str(abs(cert.term))),
                "witness_kind": cert.witness.kind,
                "witness_value": getattr(cert.witness, "d", getattr(cert.witness, "base", None)),
            }
            for cert in report.certificates
        ],
        "strategy": c.strategy if c is not None else None,
    }
    if c is not None and c.support is not None:
        d["triples"] = [{"p": p, "m": m, "r": r} for p, r, m in c.rules]
        d.update(P=c.support.P, y=c.support.y, z=c.support.z)
    if report.covering_law_ok is not None:
        d["covering_law_ok"] = report.covering_law_ok
    return d


def assert_json_matches_dumps(report):
    """to_json writes what json.dumps(indent=2) writes, of to_dict and of
    the field-by-field reference, padded or not; joined, json_pieces is
    to_json, with one piece per block of CERTIFICATE_BLOCK certificates (the
    last one may hold fewer) between a head and a tail."""
    size = len(report.certificates)
    blocks = [min(CERTIFICATE_BLOCK, size - start) for start in range(0, size, CERTIFICATE_BLOCK)]
    for pad in ("", "  "):
        text = report.to_json(pad)
        pieces = list(report.json_pieces(pad))
        assert "".join(pieces) == text and len(pieces) == math.ceil(size / CERTIFICATE_BLOCK) + 2
        assert [piece.count('"term_digits": ') for piece in pieces[1:-1]] == blocks
        assert text == json.dumps(report.to_dict(), indent=2).replace("\n", "\n" + pad)
        assert text == json.dumps(reference_dict(report), indent=2).replace("\n", "\n" + pad)


witnesses = st.one_of(
    st.builds(Divisor, st.integers(2, 10**30)),
    st.builds(MillerRabinBase, st.integers(2, 97)),
    st.just(NotComposite()),
)


class TestReportJson:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(0, 200),
        st.booleans(),
        st.lists(
            st.tuples(st.integers(0, 200), witnesses, st.none() | st.integers(-10**40, 10**40)),
            max_size=3,
        ),
        st.lists(
            st.text() | st.just('a "quote", a \\ backslash, caf\u00e9 \u2211 \U0001f600'),
            max_size=3,
        ),
    )
    # Reports that end at, or one past, the edge of a block of certificates.
    @example(5, 1, 0, 0, 63, True, [], [])
    @example(1, 1, 3, 5, 64, False, [(63, Divisor(7), -10**40), (64, MillerRabinBase(2), None)], [])
    @example(-7, -1, 2, 9, 127, False, [(127, NotComposite(), 0)], ["x"])
    @example(3, -1, 0, 0, 128, True, [(0, Divisor(2), None), (128, Divisor(2), None)], [])
    def test_to_json_is_json_dumps_of_to_dict(self, a, b, x0, x1, n, constructed, edits, failures):
        params, seed, construction = RecurrenceParams(a, b), SeedPair(x0, x1), None
        if constructed and (abs(a), b) != (2, -1):
            construction = C.construct(a, b)
            params, seed = construction.params, construction.seed
        report = verify(params, seed, n, construction)
        certs = list(report.certificates)
        for at, witness, term in edits:
            if at < len(certs):
                certs[at] = certs[at]._replace(witness=witness)
                if term is not None:
                    certs[at] = certs[at]._replace(term=term)
        report = dataclasses.replace(
            report, certificates=tuple(certs), failures=report.failures + tuple(failures)
        )
        assert_json_matches_dumps(report)

    @pytest.mark.parametrize("a, b", [(1174571, 1), (-999999999989, -1)])
    def test_terms_past_2048_bits(self, a, b):
        report = verify_construction(C.construct(a, b), 200)
        longest = max(abs(c.term) for c in report.certificates).bit_length()
        assert longest >= 2048
        assert_json_matches_dumps(report)

    def test_witness_kinds_and_values(self):
        report = verify(RecurrenceParams(1, 1), SeedPair(1, 1), 12)
        certs = list(report.certificates)
        certs[12] = certs[12]._replace(witness=MillerRabinBase(3))
        report = dataclasses.replace(report, certificates=tuple(certs))
        by_kind = {c["witness_kind"]: c["witness_value"] for c in report.to_dict()["certificates"]}
        assert by_kind == {"not_composite": None, "divisor": 2, "mr_base": 3}
        assert_json_matches_dumps(report)

    def test_no_certificates(self):
        report = verify(RecurrenceParams(5, 1), SeedPair(4, 9), 3)
        empty = dataclasses.replace(report, certificates=())
        assert '"certificates": [],' in empty.to_json()
        assert_json_matches_dumps(empty)


class TestCertificateRecord:
    def test_immutable_and_hashable(self):
        cert = verify_construction(C.construct(-9, -1), 10).certificates[3]
        with pytest.raises(AttributeError):
            cert.term = 1
        assert hash(cert) == hash(CompositenessCertificate(3, cert.term, cert.witness))
        assert cert._replace(term=1) == (3, 1, cert.witness) and cert.term != 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(0, 60),
        st.booleans(),
    )
    def test_one_record_per_term_in_index_order(self, a, b, x0, x1, n, constructed):
        params, seed, construction = RecurrenceParams(a, b), SeedPair(x0, x1), None
        if constructed and (abs(a), b) != (2, -1):
            construction = C.construct(a, b)
            params, seed = construction.params, construction.seed
        report = verify(params, seed, n, construction)
        xs = terms(params, seed, n)
        assert [(c.index, c.term) for c in report.certificates] == list(enumerate(xs))
        not_composite = [
            f"|x_{c.index}| = {abs(c.term)} is not composite"
            for c in report.certificates
            if isinstance(c.witness, NotComposite)
        ]
        assert [f for f in report.failures if f.endswith("is not composite")] == not_composite


def hand_built(params, seed, xs):
    """A report on the given terms, as a caller outside `verify` may build one."""
    certs = tuple(CompositenessCertificate(n, x, NotComposite()) for n, x in enumerate(xs))
    return VerificationReport(params, seed, len(xs) - 1, False, True, (), certs)


def assert_texts_match_str(report):
    """Every term text and digit count equals the one-str() reference."""
    want = [decimal_digits(cert.term) for cert in report.certificates]
    assert [(c["term"], c["term_digits"]) for c in report.to_dict()["certificates"]] == want


class TestTermTexts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(0, 60),
    )
    def test_recurrence_texts_match_str(self, a, b, x0, x1, n):
        params, seed = RecurrenceParams(a, b), SeedPair(x0, x1)
        assert_texts_match_str(hand_built(params, seed, terms(params, seed, n)))

    @pytest.mark.parametrize("a", [999999999989, -999999999989])
    @pytest.mark.parametrize("b", [1, -1])
    def test_large_covering_construction(self, a, b):
        report = verify_construction(C.construct(a, b), 200)
        assert report.verdict
        assert max(abs(c.term) for c in report.certificates).bit_length() > 7900
        assert_texts_match_str(report)

    @pytest.mark.parametrize("a, b, x0, x1", [(-1, -1, 0, 0), (0, -1, 0, -3), (3, -9, 0, 0)])
    def test_zero_terms_print_without_a_sign(self, a, b, x0, x1):
        report = verify(RecurrenceParams(a, b), SeedPair(x0, x1), 12)
        assert "-0" not in [c["term"] for c in report.to_dict()["certificates"]]
        assert_texts_match_str(report)

    @pytest.mark.parametrize("n", [0, 1])
    def test_shortest_horizons(self, n):
        report = verify(RecurrenceParams(7, 3), SeedPair(-20, 21), n)
        assert len(report.certificates) == n + 1
        assert_texts_match_str(report)

    @pytest.mark.parametrize("at", [0, 1, 2, 30])
    def test_tampered_term_prints_its_own_text(self, at):
        report = verify_construction(C.construct(-9, -1), 40)
        certs = list(report.certificates)
        certs[at] = certs[at]._replace(term=-(certs[at].term + 1))
        tampered = dataclasses.replace(report, certificates=tuple(certs))
        assert tampered.to_dict()["certificates"][at]["term"] == str(certs[at].term)
        assert_texts_match_str(tampered)

    @pytest.mark.parametrize("n", [0, 1, 60, 200])
    @pytest.mark.parametrize("a", [7, 1174571])
    def test_one_decimal_texts_run_per_report_verify_made(self, monkeypatch, a, n):
        # A count, not a timing: terms of any size take the base-10 run when
        # the report is the one verify made, and their own texts otherwise.
        runs = []

        def counting(*args):
            runs.append(args)
            return decimal_texts(*args)

        monkeypatch.setattr(verifier, "decimal_texts", counting)
        report = verify_construction(C.construct(a, 1), n)
        report.to_dict()
        assert len(runs) == 1
        longest = max(abs(c.term) for c in report.certificates).bit_length()
        assert (longest >= 2048) == ((a, n) == (1174571, 200)), longest
        certs = report.certificates
        tampered = certs[:-1] + (certs[-1]._replace(term=certs[-1].term + 1),)
        reordered = certs[1::-1] + certs[2:]
        for other in (tampered, reordered, ()):
            if other != certs:  # at n = 0 there is nothing to reorder
                dataclasses.replace(report, certificates=other).to_dict()
        assert len(runs) == 1

    @pytest.mark.parametrize(
        "report",
        [
            lambda: verify_construction(C.construct(7, 1), 60),
            lambda: verify_construction(C.construct(1174571, 1), 200),
            lambda: verify(RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR), 300),
            lambda: verify(RecurrenceParams(7, 3), SeedPair(-20, 21), 0),
        ],
        ids=["7", "1174571", "vsemirnov", "n=0"],
    )
    def test_a_report_verify_made_walks_the_recurrence_once_on_decimals(self, monkeypatch, report):
        # A count: the JSON of a report verify made runs iter_terms once, on
        # the Decimal seeds of decimal_texts, and never on ints.
        report = report()
        walks = []

        def counting(params, seed):
            walks.append(type(seed.x0))
            return iter_terms(params, seed)

        monkeypatch.setattr(recurrence, "iter_terms", counting)
        assert_texts_match_str(report)
        assert walks == [decimal.Decimal]

    def test_reordered_certificates_print_their_own_terms(self):
        report = verify_construction(C.construct(5, 1), 20)
        swapped = dataclasses.replace(report, certificates=report.certificates[::-1])
        assert_texts_match_str(swapped)
        assert_texts_match_str(dataclasses.replace(report, certificates=()))


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="Python has no int-to-str digit limit"
)


@needs_digit_limit
class TestDigitLimit:
    @staticmethod
    def report_on(x2):
        """A report whose x_2 is x2 and whose seeds have at most as many digits."""
        sign = 1 if x2 > 0 else -1
        return verify(RecurrenceParams(1, 1), SeedPair(x2 - sign, sign), 2)

    @pytest.mark.parametrize("limit", [None, 700])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_limit_digits_print_and_one_more_raises(self, limit, sign):
        saved = sys.get_int_max_str_digits()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            limit = sys.get_int_max_str_digits()
            at_limit = sign * (10**limit - 1)
            cert = self.report_on(at_limit).to_dict()["certificates"][2]
            assert cert["term_digits"] == limit
            assert cert["term"] == str(at_limit)

            past = sign * 10**limit
            with pytest.raises(OutputTooLarge) as reference:
                decimal_digits(past)
            with pytest.raises(OutputTooLarge) as raised:
                self.report_on(past).to_dict()
            assert str(raised.value) == str(reference.value) == (
                f"a {past.bit_length()}-bit integer has more than the "
                f"{limit} decimal digits Python converts to text"
            )
        finally:
            sys.set_int_max_str_digits(saved)

    def test_the_first_term_past_the_limit_is_named(self):
        # x_3012..x_3200 of the Vsemirnov pair have more than 640 digits;
        # the error names the first of them, before any piece is made.
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            report = verify(RecurrenceParams(1, 1), SeedPair(106276436867, 35256392432), 3200)
            first = next(c.term for c in report.certificates if abs(c.term) >= 10**640)
            assert abs(report.certificates[-1].term).bit_length() > first.bit_length()
            with pytest.raises(OutputTooLarge, match=f"^a {first.bit_length()}-bit integer "):
                report.json_pieces()
        finally:
            sys.set_int_max_str_digits(saved)

    def test_unprintable_prime_term_fails_by_its_bit_length(self):
        prime = 10**700 + 7  # the smallest prime above 10**700
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            report = verify(RecurrenceParams(2, -1), SeedPair(prime, prime + 2), 0)
            assert report.failures == ("|x_0| = <2326-bit integer> is not composite",)
            assert not report.verdict
            with pytest.raises(OutputTooLarge):
                report.to_json()
        finally:
            sys.set_int_max_str_digits(saved)

    def test_unprintable_gcd_fails_by_its_bit_length(self):
        report = verify(RecurrenceParams(1, 1), SeedPair(2 * 10**5000, 4 * 10**5000), 3)
        assert report.failures == ("gcd(x0, x1) = <16611-bit integer> != 1",)
        assert not report.coprime_ok

    @pytest.mark.parametrize("sign", [1, -1])
    def test_no_limit_never_raises(self, sign):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            past = sign * 10**saved
            cert = self.report_on(past).to_dict()["certificates"][2]
            assert (cert["term"], cert["term_digits"]) == (str(past), saved + 1)
        finally:
            sys.set_int_max_str_digits(saved)


def test_interpreters_without_the_digit_limit_print_every_term(monkeypatch):
    # Python 3.10.0-3.10.6 have neither the limit nor sys.get_int_max_str_digits.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    report = verify(RecurrenceParams(10**2500, 1), SeedPair(1, 10**2500), 2)
    cert = report.to_dict()["certificates"][2]
    assert cert["term_digits"] == 5001 and cert["term"] == "1" + "0" * 4999 + "1"


class TestAuditTable1:
    def test_all_rows(self):
        rows = audit_table1(100)
        assert len(rows) == 10
        for row in rows:
            assert row.triples_valid, row.report.params
            assert row.report.verdict, row.report.params
            assert row.report.covering_law_ok, row.report.params

    def test_ordering_anomaly_recorded(self):
        rows = {(r.report.params.a, r.report.params.b): r for r in audit_table1(20)}
        assert rows[(3, -1)].anomalies
        assert not rows[(-3, -1)].anomalies
        assert not rows[(5, 1)].anomalies

    def test_example_rows(self):
        rows = {(r.report.params.a, r.report.params.b): r for r in audit_table1(100)}
        assert rows[(5, 1)].report.seed == SeedPair(495, 1136)
        assert rows[(-4, 1)].report.seed == SeedPair(116, 801)


def test_grid_round_trip_sample():
    for a in range(-12, 13):
        for b in range(-6, 7):
            if b == 0 or (abs(a), b) == (2, -1):
                continue
            r = C.construct(a, b)
            report = verify_construction(r, 120)
            assert report.verdict, (a, b, report.failures)
            assert math.gcd(r.seed.x0, r.seed.x1) == 1
