import math

import pytest
import sympy
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from compseq import arith
from compseq import constructor as C
from compseq.arith import FACTOR_TRIAL_BOUND, EffortExceeded, factorize, is_perfect_square, is_prime
from compseq.recurrence import RecurrenceParams, SeedPair, terms
from compseq.verifier import verify_construction

# The paper's 1444-vs-1144 display discrepancy for (a, b) = (9, 1): CRT
# recomputation fixes z = 1444.
WORKED_EXAMPLE_Z_VARIANTS_9_1 = (1444, 1144)


class TestSpecialCases:
    def test_b_zero(self):
        with pytest.raises(C.NotConstructible) as exc:
            C.construct(5, 0)
        assert exc.value.reason == "BZero"

    def test_excluded_pairs(self):
        for a in (2, -2):
            with pytest.raises(C.NotConstructible) as exc:
                C.construct(a, -1)
            assert exc.value.reason == "ExcludedPair"

    def test_a_zero(self):
        r = C.construct(0, 7)
        assert (r.seed.x0, r.seed.x1) == (4, 9)
        assert r.strategy == C.A_ZERO

    def test_degenerate_discriminant(self):
        r = C.construct(4, -4)  # c = 2
        assert (r.seed.x0, r.seed.x1) == (15, 16)
        assert r.strategy == C.DEGENERATE_DISC
        r = C.construct(-6, -9)  # |a| = 6, c = 3
        assert (r.seed.x0, r.seed.x1) == (35, 54)


class TestClosedFormDegenerate:
    def test_values(self):
        assert C.closed_form_degenerate(2, 3) == -48
        assert C.closed_form_degenerate(2, 4) == -208

    def test_agrees_with_recurrence(self):
        for c in list(range(2, 21)) + list(range(-20, -1)):
            params = RecurrenceParams(2 * c, -c * c)
            seed = SeedPair(4 * c * c - 1, 2 * c**3)
            xs = terms(params, seed, 50)
            for n in range(3, 51):
                assert xs[n] == C.closed_form_degenerate(c, n), (c, n)
                assert xs[n] != 0


def paper_case3_x1(a, b):
    """x1 of CaseIIIa (|a| = 1) and CaseIIIc (2 <= |a| < |b|) as the paper
    states it, one formula for each sign of a and of b."""
    if a > 0 and b > 0:
        return b * (b * b - a * a)
    if a < 0 and b < 0:
        return -b * (b * b - a * a)
    if a < 0 and b > 0:
        return b * (b * b + a * a)
    return -b * (b * b + a * a)  # a > 0 and b < 0


class TestPolynomialSeeds:
    def test_case1(self):
        r = C.construct(7, 3)
        assert r.strategy == C.CASE_I
        assert (r.seed.x0, r.seed.x1) == (80, 81)

    def test_case2(self):
        r = C.construct(3, 4)
        assert r.strategy == C.CASE_II
        assert (r.seed.x0, r.seed.x1) == (4 * 4**4 - 1, 2 * 16)

    def test_case3a_sign_table(self):
        for a, b in [(1, 3), (-1, -3), (1, -3), (-1, 3)]:
            r = C.construct(a, b)
            assert r.strategy == C.CASE_IIIA
            assert r.seed.x0 == (2 * b * b - 1) ** 2
            assert r.seed.x1 > 0
            assert r.seed.x1 == paper_case3_x1(a, b)
            # x2 matches the stated closed form up to the subcase
            x2 = terms(r.params, r.seed, 2)[2]
            assert x2 in (b**3 * (4 * b * b - 3), b**3 * (4 * b * b - 5))

    def test_case3b(self):
        for a, b in [(5, 5), (-5, 5), (5, -5), (-5, -5)]:
            r = C.construct(a, b)
            assert r.strategy == C.CASE_IIIB
            assert (r.seed.x0, r.seed.x1) == (4 * b**4 - 1, 2 * b * b)

    def test_case3c_sign_table(self):
        for a, b in [(2, 5), (-2, -5), (-2, 5), (2, -5), (3, 7), (-4, -11)]:
            r = C.construct(a, b)
            assert r.strategy == C.CASE_IIIC
            assert r.seed.x0 == abs(a) ** 3
            assert r.seed.x1 > 0
            assert r.seed.x1 == paper_case3_x1(a, b)

    def test_case3_terms_divisible_by_b_squared(self):
        for a, b in [(1, 3), (-1, -5), (5, 5), (2, 5), (-3, 7), (4, -13)]:
            r = C.construct(a, b)
            assert r.strategy in (C.CASE_IIIA, C.CASE_IIIB, C.CASE_IIIC)
            xs = terms(r.params, r.seed, 200)
            for n in range(3, 201):
                assert xs[n] % (b * b) == 0
                assert xs[n] != 0
            if r.strategy in (C.CASE_IIIA, C.CASE_IIIC):
                for n in range(3, 201):
                    assert (xs[n] // (b * b)) % b != 0

    def test_case2_no_zero_terms(self):
        for a, b in [(3, 4), (-1, 4), (4, -6), (2, -9)]:
            r = C.construct(a, b)
            assert r.strategy == C.CASE_II
            assert all(x != 0 for x in terms(r.params, r.seed, 200))


class TestSquareGap:
    def test_examples(self):
        assert C.square_gap_holds(1, 2)
        assert C.square_gap_holds(-3, 3)
        assert C.square_gap_holds(2, 2)

    def test_full_grid_and_non_squareness(self):
        for b in range(-50, 51):
            if abs(b) < 2:
                continue
            for a in range(-abs(b), abs(b) + 1):
                if a == 0 or a * a + 4 * b == 0:
                    continue
                assert C.square_gap_holds(a, b), (a, b)
                mid = 16 * b**8 + 8 * a * b**5 - 8 * b**4 - 4 * b**3 - 2 * a * b + 1
                assert not is_perfect_square(mid), (a, b)


def picks(pick, a):
    """The primes of pick(a, p1), with p1 the p of |a| = p^s as factorize
    finds it; asserts the (start, step) of each rule against the template
    its primes were chosen for."""
    p1 = factorize(a).primes()[0]
    rules = pick(a, p1)
    if pick is C.pick_primes_bplus1 and p1 != 3:
        template = ((0, 2), (1, 4), (3, 4))
    else:
        template = ((0, 2), (1, 6), (3, 6), (5, 6))
    assert tuple((r.start, r.step) for r in rules) == template, (pick.__name__, a)
    return tuple(r.d for r in rules)


class TestPrimePicks:
    def test_bminus1_examples(self):
        assert picks(C.pick_primes_bminus1, -9) == (3, 2, 5, 13)
        assert picks(C.pick_primes_bminus1, 4) == (2, 3, 5, 13)
        # greedy p4 = 2 starves a^2 - 1 = 24; backtrack lands on 11
        assert picks(C.pick_primes_bminus1, 5) == (5, 2, 3, 11)

    def test_bminus1_distinctness(self):
        for a in [4, 5, 7, 8, 9, 11, 13, 16, -25, 27, -32, 49]:
            chosen = picks(C.pick_primes_bminus1, a)
            assert len(set(chosen)) == 4
            assert all(is_prime(p) for p in chosen)

    def test_bplus1_examples(self):
        assert picks(C.pick_primes_bplus1, 8) == (2, 3, 11)
        assert picks(C.pick_primes_bplus1, -49) == (7, 3, 89)
        assert picks(C.pick_primes_bplus1, 9) == (3, 2, 41, 7)

    def test_bplus1_distinctness(self):
        for a in [7, 8, 11, 13, 16, -25, 32, 49, 9, -27, 81]:
            chosen = picks(C.pick_primes_bplus1, a)
            assert len(set(chosen)) == len(chosen)
            assert all(is_prime(p) for p in chosen)


def ref_pick_primes_bminus1(a):
    """pick_primes_bminus1 from the full factorizations of a, a^2-3 and a^2-1."""
    p1 = factorize(a).primes()[0]
    p4_candidates = [p for p in factorize(a * a - 3).primes() if p != 3 and p != p1]
    amin1_primes = factorize(a * a - 1).primes()
    for p4 in p4_candidates:
        rest = [p for p in amin1_primes if p not in (p1, p4)]
        if len(rest) >= 2:
            return p1, rest[0], rest[1], p4
    raise ValueError(f"no admissible prime selection for a={a}")


def ref_pick_primes_bplus1(a):
    """pick_primes_bplus1 from the full factorizations of a and of a^2+2, or
    of (a^2+1)/2 and (a^2+3)/12 when a is a power of 3."""
    p1 = factorize(a).primes()[0]
    if p1 != 3:
        candidates = [p for p in factorize(a * a + 2).primes() if p not in (3, p1)]
        return p1, 3, candidates[0]
    p3 = factorize((a * a + 1) // 2).primes()[0]
    p4_pool = [p for p in factorize((a * a + 3) // 12).primes() if p not in (3, 2, p3)]
    return 3, 2, p3, p4_pool[0]


@st.composite
def prime_powers(draw, top=10**12):
    """+-p^s <= top for s = 1, 2, 3, with p a small prime or up to the s-th root of top."""
    s = draw(st.integers(1, 3))
    root = sympy.integer_nthroot(top, s)[0]
    p = draw(st.sampled_from((2, 3, 5, 7)) | st.integers(3, root).map(sympy.prevprime))
    return draw(st.sampled_from((1, -1))) * p**s


def picker_cofactors(monkeypatch, pick, a):
    """picks(pick, a), and the cofactors that reached the Pollard-Brent stage
    of arith.prime_factors on the way (the stage tests each with is_prime;
    trial division calls no is_prime)."""
    seen = []

    def recording(n):
        seen.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", recording)
    return picks(pick, a), seen


PICKERS = [
    (C.pick_primes_bminus1, ref_pick_primes_bminus1),
    (C.pick_primes_bplus1, ref_pick_primes_bplus1),
]


class TestPickersMatchFullFactorization:
    @settings(max_examples=60, deadline=None)
    @given(a=prime_powers())
    def test_prime_powers(self, a):
        assume(abs(a) >= 6)
        for pick, ref in PICKERS:
            try:
                expected = ref(a)
            except EffortExceeded:
                reject()
            assert picks(pick, a) == expected, (pick.__name__, a)

    # a^2 + 2 = 3^k q with q prime just below 10^5: trial division leaves q
    # as its cofactor and proves it prime, so Pollard-Brent never starts.
    @pytest.mark.parametrize("a", [521, -541, 941])
    def test_prime_cofactor_below_the_trial_bound(self, monkeypatch, a):
        picked, cofactors = picker_cofactors(monkeypatch, C.pick_primes_bplus1, a)
        assert picked == ref_pick_primes_bplus1(a)
        assert 9 * 10**4 < picked[2] < 10**5
        assert set(sympy.factorint(a * a + 2)) == {3, picked[2]}
        assert cofactors == []

    # Trial division finds too few admissible primes, so the picker reads on
    # into the Pollard-Brent split of the cofactor it leaves: of a^2+2, prime
    # (583782940679) or composite (-175669030073); of a^2-1 (518750281723,
    # -3^13); of (a^2+1)/2 (3^12).
    @pytest.mark.parametrize(
        "pick, ref, a",
        [
            (*PICKERS[1], 583782940679),
            (*PICKERS[1], -175669030073),
            (*PICKERS[0], 518750281723),
            (*PICKERS[0], -(3**13)),
            (*PICKERS[1], 3**12),
        ],
    )
    def test_fallback_to_factorize(self, monkeypatch, pick, ref, a):
        picked, cofactors = picker_cofactors(monkeypatch, pick, a)
        assert picked == ref(a)
        assert set(cofactors) - {abs(a)}
        assert any(p > FACTOR_TRIAL_BOUND for p in picked[1:])

    def test_small_coefficients(self):
        for a in range(-300, 301):
            if abs(a) < 2 or len(factorize(a).primes()) != 1:
                continue
            for (pick, ref), least in zip(PICKERS, (4, 6)):
                if abs(a) >= least:
                    assert picks(pick, a) == ref(a), (pick.__name__, a)


# construct factorizes |a| once and hands the p of |a| = p^s to the picker,
# which never factorizes |a|.
@pytest.mark.parametrize(
    "a, b, p",
    [
        (999999999989, 1, 999999999989),
        (999999999989, -1, 999999999989),
        (1000003**2, 1, 1000003),
        (-(1009**3), -1, 1009),
    ],
)
def test_construct_factorizes_a_once(monkeypatch, a, b, p):
    seen = []

    def recording(n, *args, **kwargs):
        seen.append(n)
        return factorize(n, *args, **kwargs)

    monkeypatch.setattr(C, "factorize", recording)
    r = C.construct(a, b)
    assert r.strategy == C.COVERING_CRT and r.rules[0] == (p, 0, 2)
    assert [n for n in seen if abs(n) == abs(a)] == [a], seen


@pytest.mark.parametrize(
    "a, b", [(2**61 - 1, -1), (5**30, 1), (7**25, 1), (7**25, -1), (2**89 - 1, 1), (2**89 - 1, -1)]
)
def test_large_prime_powers_construct(a, b):
    # Full factorization of a^2-3 or a^2+2 exceeds the effort bound for all
    # but (2^89-1, -1); the smallest admissible primes are all below 10^5.
    r = C.construct(a, b)
    assert r.strategy == C.COVERING_CRT
    report = verify_construction(r, 200)
    assert report.verdict and report.covering_law_ok


def test_smallest_prime_factor_of_a_large_b():
    b = -2 * (2**61 - 1) * (2**89 - 1)
    r = C.construct(7, b)
    assert r.strategy == C.CASE_II and r.rules[-1] == (2, 1, 1)
    c = 3 * (2**61 - 1) * (2**89 - 1)
    r = C.construct(2 * c, -c * c)
    assert r.strategy == C.DEGENERATE_DISC and r.rules[-1] == (3, 1, 1)


class TestDeriveSeed:
    def test_worked_example_minus9(self):
        r = C.construct(-9, -1)
        assert (r.support.P, r.support.y, r.support.z) == (390, 105, 134)
        assert (r.seed.x0, r.seed.x1) == (105, 134)

    def test_worked_example_8(self):
        r = C.construct(8, 1)
        assert (r.support.P, r.support.y, r.support.z) == (66, 56, 63)
        assert (r.seed.x0, r.seed.x1) == (56, 129)

    def test_worked_example_minus49(self):
        r = C.construct(-49, 1)
        assert (r.support.P, r.support.y, r.support.z) == (1869, 980, 1464)
        assert (r.seed.x0, r.seed.x1) == (980, 3333)

    def test_worked_example_9_z_fixed_by_crt(self):
        r = C.construct(9, 1)
        assert (r.support.P, r.support.y) == (1722, 1107)
        # brute-force residue oracle for z
        from compseq.lucas import LucasContext

        ctx = LucasContext(RecurrenceParams(9, 1))
        residues = [(ctx.u(m - rr + 1) % p, p) for p, rr, m in r.rules]
        matches = [
            v
            for v in range(r.support.P)
            if all(v % p == rr for rr, p in residues)
        ]
        assert matches == [r.support.z]
        assert r.support.z == WORKED_EXAMPLE_Z_VARIANTS_9_1[0]  # 1444, not 1144

    def test_intermediates_consistent(self):
        for a, b in [(11, -1), (16, 1), (27, 1), (-8, -1)]:
            r = C.construct(a, b)
            s = r.support
            primes = [rule.d for rule in r.rules]
            assert s.P == math.prod(primes)
            assert r.seed.x0 % s.P == s.y
            assert r.seed.x1 % s.P == s.z
            assert r.seed.x0 > max(primes)
            assert r.seed.x1 > r.seed.x0
            assert math.gcd(r.seed.x0, r.seed.x1) == 1


class TestDispatch:
    def test_two_prime_factors(self):
        r = C.construct(6, 1)
        assert r.strategy == C.TWO_PRIME_FACTORS
        assert (r.seed.x0, r.seed.x1) == (4, 9)
        r = C.construct(-10, -1)
        assert (r.seed.x0, r.seed.x1) == (4, 25)

    def test_table1_rows_use_fixture_triples(self):
        for (a, b), (rules, _, _) in C.TABLE1.items():
            r = C.construct(a, b)
            assert r.strategy == C.TABLE1_STRATEGY
            assert r.rules == rules

    def test_periodic_cases(self):
        assert C.construct(-1, -1).seed == SeedPair(8, 27)
        assert C.construct(1, -1).seed == SeedPair(8, 35)

    def test_vsemirnov(self):
        r = C.construct(1, 1)
        assert (r.seed.x0, r.seed.x1) == C.VSEMIRNOV_PAIR
        r = C.construct(-1, 1)
        assert (r.seed.x0, r.seed.x1) == (71020044435, 106276436867)

    def test_reflected_identity(self):
        r = C.construct(-1, 1)
        xs = terms(r.params, r.seed, 150)
        vs = terms(RecurrenceParams(1, 1), SeedPair(*C.VSEMIRNOV_PAIR), 150)
        for n in range(1, 151):
            assert abs(xs[n]) == vs[n - 1]

    def test_seed_invariants_on_sample(self):
        sample = [(0, 3), (4, -4), (7, 3), (3, 4), (1, 3), (5, 5), (2, 5),
                  (6, 1), (5, 1), (8, 1), (9, 1), (-9, -1), (1, 1), (-1, 1)]
        for a, b in sample:
            r = C.construct(a, b)
            assert r.seed.x0 > 0 and r.seed.x1 > 0
            assert math.gcd(r.seed.x0, r.seed.x1) == 1
