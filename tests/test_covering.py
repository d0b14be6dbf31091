import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import eager_search_triples, reference_discover_rules

from compseq import arith, covering
from compseq.covering import (
    _TEMPLATES,
    Rule,
    discover_rules,
    is_covering,
    search_triples,
    validate_triples,
)
from compseq.lucas import LucasContext
from compseq import constructor as C
from compseq.recurrence import RecurrenceParams, SeedPair, terms


class TestIsCovering:
    def test_parity_partition(self):
        assert is_covering([(2, 0), (2, 1)]).covered

    def test_paper_system(self):
        assert is_covering([(2, 0), (6, 1), (6, 3), (6, 5)]).covered

    def test_uncovered_residue_reported(self):
        check = is_covering([(2, 0), (4, 1)])
        assert not check.covered
        assert check.first_uncovered == 3

    def test_empty(self):
        assert not is_covering([]).covered

    @pytest.mark.parametrize("classes", [[(0, 0)], [(2, 0), (0, 1)], [(2, 0), (-2, 1)]])
    def test_modulus_below_one_raises(self, classes):
        with pytest.raises(ValueError, match="every modulus must be >= 1"):
            is_covering(classes)

    def test_modulus_one_covers(self):
        assert is_covering([(1, 0)]).covered

    def test_brute_force_oracle(self):
        systems = [
            [(2, 0), (3, 0), (4, 1), (6, 5), (12, 7)],
            [(2, 0), (3, 1), (4, 1), (6, 5)],
            [(2, 1), (4, 0), (8, 2), (8, 6)],
            [(3, 0), (3, 1)],
        ]
        for classes in systems:
            period = math.lcm(*(m for m, _ in classes))
            brute = all(
                any(j % m == r for m, r in classes) for j in range(10 * period)
            )
            assert is_covering(classes).covered == brute

    def test_templates_are_covering(self):
        for template in _TEMPLATES:
            assert is_covering(template).covered, template


def triples(*ts):
    """Covering triples (p, m, r) as the rules Rule(p, r, m)."""
    return tuple(Rule(p, r, m) for p, m, r in ts)


class TestTripleTypes:
    def test_residue_range_enforced(self):
        for bad in triples((3, 2, 2), (3, 1, 0)):
            failures = validate_triples(RecurrenceParams(3, 1), (bad,))
            assert failures == (f"{bad} needs step >= 2 and 0 <= start < step",)


class TestValidate:
    def test_table_row_3_1(self):
        rules = triples((3, 2, 0), (11, 4, 1), (7, 8, 3), (17, 8, 7))
        assert validate_triples(RecurrenceParams(3, 1), rules) == ()

    def test_table_row_3_minus1(self):
        rules = triples((3, 2, 0), (2, 3, 0), (7, 4, 3), (47, 8, 5), (23, 12, 5), (1103, 24, 1))
        assert validate_triples(RecurrenceParams(3, -1), rules) == ()

    def test_tampered_prime_fails_divisibility(self):
        rules = triples((3, 2, 0), (2, 3, 0), (5, 4, 3), (47, 8, 5), (23, 12, 5), (1103, 24, 1))
        failures = validate_triples(RecurrenceParams(3, -1), rules)
        assert failures
        assert any("does not divide" in f for f in failures)

    def test_duplicate_primes_fail(self):
        rules = triples((3, 2, 0), (3, 4, 1), (7, 4, 3))
        assert validate_triples(RecurrenceParams(3, 1), rules)

    def test_non_covering_fails(self):
        failures = validate_triples(RecurrenceParams(3, 1), triples((3, 2, 0), (11, 4, 1)))
        assert failures
        assert any("cover" in f for f in failures)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python has no int-to-str digit limit")
class TestUnprintableIntegers:
    """A failure text names an integer past the int-to-str limit by its bit
    length instead of raising."""

    params = RecurrenceParams(10**200 + 7, 1)

    def test_lucas_term(self):
        assert validate_triples(self.params, (Rule(13, 1, 24),)) == (
            "classes do not cover: 0 is missed",
            "13 does not divide u_24 = <15281-bit integer> in Rule(d=13, start=1, step=24)",
        )

    def test_rule_divisor(self):
        d, rule = "<16610-bit integer>", "Rule(d=<16610-bit integer>, start=1, step=2)"
        assert validate_triples(self.params, (Rule(10**5000 + 1, 1, 2),)) == (
            f"{d} is not prime in {rule}",
            "classes do not cover: 0 is missed",
            f"{d} does not divide u_2 = {10**200 + 7} in {rule}",
        )


class TestSearch:
    def test_paper_choice_minus9(self):
        rules = search_triples(RecurrenceParams(-9, -1))
        assert [(p, m, r) for p, r, m in rules] == [
            (3, 2, 0),
            (2, 6, 1),
            (5, 6, 3),
            (13, 6, 5),
        ]

    def test_paper_choice_8(self):
        rules = search_triples(RecurrenceParams(8, 1))
        assert [(p, m, r) for p, r, m in rules] == [
            (2, 2, 0),
            (3, 4, 1),
            (11, 4, 3),
        ]

    def test_a7_uses_u4_factors(self):
        params = RecurrenceParams(7, 1)
        rules = search_triples(params)
        assert validate_triples(params, rules) == ()
        assert {rule.d for rule in rules} == {7, 3, 17}

    def test_output_always_validates(self):
        for a in list(range(3, 20)) + [-9, -15]:
            for b in (-1, 1):
                if b == -1 and abs(a) == 2:
                    continue
                params = RecurrenceParams(a, b)
                rules = search_triples(params)
                assert rules is not None, (a, b)
                assert validate_triples(params, rules) == (), (a, b)

    def test_precondition(self):
        with pytest.raises(ValueError):
            search_triples(RecurrenceParams(1, 1))
        with pytest.raises(ValueError):
            search_triples(RecurrenceParams(5, 2))


class TestSearchReadsOnDemand:
    """search_triples reads one prime_factors stream per u_m, only as far as
    the backtracking asks; where no u_m resists splitting, it returns what a
    search over complete factorizations returns."""

    def test_matches_the_eager_search_for_small_a(self):
        for a in range(-200, 201):
            for b in (1, -1):
                if abs(a) >= 2:
                    params = RecurrenceParams(a, b)
                    assert search_triples(params) == eager_search_triples(params), (a, b)

    @pytest.mark.parametrize("a", [999999999989, -(1000003**2), 1009**3, 10**9 + 7, -(2**31 - 1), 3**19])
    @pytest.mark.parametrize("b", [1, -1])
    def test_matches_the_eager_search_for_prime_powers_above_1e9(self, a, b):
        params = RecurrenceParams(a, b)
        rules = search_triples(params)
        assert rules is not None and rules == eager_search_triples(params)

    def test_mersenne_61_needs_no_pollard_brent(self, monkeypatch):
        # u_2 = p1 is prime, and 3 and 19 divide u_4 = p1 * (p1^2 + 2): the
        # search stops reading before the cofactor that resists splitting.
        def refuse(*args):
            raise AssertionError("Pollard-Brent ran")

        monkeypatch.setattr(arith, "_pollard_brent", refuse)
        p1 = 2**61 - 1
        assert search_triples(RecurrenceParams(p1, 1)) == triples((p1, 2, 0), (3, 4, 1), (19, 4, 3))

    def test_one_prime_factors_call_per_modulus(self, monkeypatch):
        # (-9, -1) tries the templates mod 2 and mod 4 before the mod 6 one
        # succeeds, and reads u_2 in all three, all in the first pass.
        calls = []

        def counting(n, split):
            calls.append((n, split))
            return arith.prime_factors(n, split)

        monkeypatch.setattr(covering, "prime_factors", counting)
        params = RecurrenceParams(-9, -1)
        assert search_triples(params) == triples((3, 2, 0), (2, 6, 1), (5, 6, 3), (13, 6, 5))
        ctx = LucasContext(params)
        assert calls == [(ctx.u(2), False), (ctx.u(4), False), (ctx.u(6), False)]

    def test_effort_exceeded_ends_the_candidates_where_splitting_gave_up(self, monkeypatch):
        # With every split refused, u_4 = p1 * (p1^2 - 2) gives no prime at
        # all, and u_6 only its trial primes 2, 3, 5, ... before the refusal;
        # those still complete the mod 6 template.  The eager search loses
        # all of u_6's primes to the same refusal and finds nothing.
        monkeypatch.setattr(arith, "_pollard_brent", lambda n, rng: None)
        p1 = 2**61 - 1
        params = RecurrenceParams(p1, -1)
        assert search_triples(params) == triples((p1, 2, 0), (2, 6, 1), (3, 6, 3), (5, 6, 5))
        assert eager_search_triples(params) is None

    def test_every_template_takes_the_trial_primes_before_pollard_brent(self, monkeypatch):
        # u_4 = p1 * (p1^2 - 2) has no trial prime and a cofactor that resists
        # splitting; the mod 6 template, next in order, needs only u_2 = p1
        # (prime) and the trial primes of u_6, so no split is ever tried.
        def refuse(*args):
            raise AssertionError("Pollard-Brent ran")

        monkeypatch.setattr(arith, "_pollard_brent", refuse)
        p1 = 2**61 - 1
        assert search_triples(RecurrenceParams(p1, -1)) == triples((p1, 2, 0), (2, 6, 1), (3, 6, 3), (5, 6, 5))

    def test_the_second_pass_splits_what_the_first_could_not(self, monkeypatch):
        # u_2 = -(1000003^2) is a square past the trial primes, so the first
        # pass has no prime for the class 0 (mod 2) of any template.
        calls = []

        def counting(n, split):
            calls.append((n, split))
            return arith.prime_factors(n, split)

        monkeypatch.setattr(covering, "prime_factors", counting)
        params = RecurrenceParams(-(1000003**2), 1)
        assert search_triples(params) == triples((1000003, 2, 0), (3, 4, 1), (19, 4, 3))
        assert calls == [(params.a, False), (params.a, True), (LucasContext(params).u(4), True)]


@st.composite
def term_lists(draw):
    """x_0..x_N of small recurrences, from random seeds or from a
    construction's seeds, moved by one or scaled, so that discovery meets
    coverings, broken coverings, zero terms and shared factors."""
    a, b = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    n = draw(st.integers(0, 120))
    x0, x1 = draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6))
    if b and (abs(a), b) != (2, -1) and draw(st.booleans()):
        seed = C.construct(a, b).seed
        x0, x1 = seed.x0, seed.x1 * draw(st.sampled_from((1, 2, 3))) + draw(st.sampled_from((0, 0, 1, -1)))
    return terms(RecurrenceParams(a, b), SeedPair(x0, x1), n)


# 140 terms whose classes mod 70 share a prime at stride 70, all but class
# 64: 70 passes the first 64 classes and fails past them.  With class 64's
# prime too (PRIMES[:70] * 2), L = 70 holds.
PRIMES = arith.small_primes(1000)
BROKEN_AT_64 = PRIMES[:70] + PRIMES[:64] + PRIMES[100:106]


class TestDiscoverRules:
    @settings(max_examples=200, deadline=None)
    @given(xs=term_lists())
    @example(xs=[0] * 9)
    @example(xs=BROKEN_AT_64)
    @example(xs=PRIMES[:70] * 2)
    @example(xs=terms(RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR), 1439))
    def test_matches_the_definition(self, xs):
        assert discover_rules(xs) == reference_discover_rules(xs)

    def test_needs_two_periods_of_terms(self):
        xs = terms(RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR), 1439)  # 2 * 720 terms
        rules = discover_rules(xs)
        assert math.lcm(*(rule.step for rule in rules)) == 720
        assert discover_rules(xs[:-1]) == () == discover_rules([])

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(3, 10**5), sign=st.sampled_from((1, -1)), b=st.sampled_from((1, -1)))
    def test_covering_constructions_give_no_longer_a_period(self, a, sign, b):
        # A covering whose moduli divide L gives every class mod L a common
        # prime at stride L, so discovery stops at L = lcm of the steps or before.
        r = C.construct(sign * a, b)
        period = math.lcm(*(rule.step for rule in r.rules))
        xs = terms(r.params, r.seed, max(200, 2 * period))
        rules = discover_rules(xs)
        assert rules and math.lcm(*(rule.step for rule in rules)) <= period
