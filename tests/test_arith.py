import itertools
import math
import random
import sys
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compseq import arith, verifier
from compseq.arith import (
    CHUNK_PRIMES,
    DIGIT_BASE,
    GROUP_CHUNKS,
    MR_DETERMINISTIC_BASES,
    MR_DETERMINISTIC_BOUND,
    SCREEN_BOUND,
    SCREEN_CHUNKS,
    TRIAL_BOUND,
    WORD_BLOCK_BOUND,
    Divisor,
    EffortExceeded,
    MillerRabinBase,
    NonCoprimeModuli,
    NotComposite,
    SearchExhausted,
    _strong_probable_prime,
    compositeness_witness,
    coprime_shift,
    crt_solve,
    factorize,
    is_prime,
    prime_factors,
    screen,
    small_primes,
    witness_past_screen,
)
from compseq.recurrence import RecurrenceParams, SeedPair


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(1103)

    def test_agrees_with_trial_division_small(self):
        for n in range(10_000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_agrees_with_sympy_at_the_screen_edge(self):
        below, above = sympy.prevprime(SCREEN_BOUND), sympy.nextprime(SCREEN_BOUND)
        big = sympy.nextprime(10**30)
        values = [
            below * above,
            above**2,
            below**2,
            above,
            SCREEN_BOUND + 1,
            above * big,
            below * big,
            above * sympy.nextprime(above),
            sympy.nextprime(10**6) ** 2,
            big,
        ]
        for n in values:
            assert is_prime(n) == sympy.isprime(n), n

    def test_agrees_with_sympy_on_random_64bit(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.getrandbits(64)
            assert is_prime(n) == sympy.isprime(n), n

    def test_large_probabilistic_regime(self):
        # above the deterministic bound; cross-check against sympy
        rng = random.Random(2)
        for _ in range(20):
            n = rng.getrandbits(120) | 1
            assert is_prime(n) == sympy.isprime(n), n


class TestWitness:
    def test_divisor_for_105(self):
        w = compositeness_witness(105)
        assert w == Divisor(3)

    def test_prime_and_units(self):
        assert compositeness_witness(7) == NotComposite()
        assert compositeness_witness(0) == NotComposite()
        assert compositeness_witness(1) == NotComposite()
        assert compositeness_witness(-1) == NotComposite()

    def test_negative_uses_absolute_value(self):
        assert compositeness_witness(-105) == Divisor(3)

    def test_divisor_witnesses_are_sound(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(2, 10**12)
            w = compositeness_witness(n)
            if isinstance(w, Divisor):
                assert n % w.d == 0 and 1 < w.d < n
            elif isinstance(w, NotComposite):
                assert sympy.isprime(n)

    def test_mr_witness_for_large_semiprime(self, monkeypatch):
        p = sympy.nextprime(10**10)
        q = sympy.nextprime(2 * 10**10)
        monkeypatch.setattr(arith, "TRIAL_BOUND", 10**6)
        w = compositeness_witness(p * q)
        assert isinstance(w, MillerRabinBase)
        assert not _strong_probable_prime(p * q, w.base)

    def test_base_2_pseudoprime_above_the_bound(self):
        # 1287836183341 * 2575672366681: a strong pseudoprime to base 2 just
        # above the bound, with no prime factor <= 10**6.
        n = 3317044070243339695661221
        assert n >= MR_DETERMINISTIC_BOUND and _strong_probable_prime(n, 2)
        for m in (n, -n):
            assert compositeness_witness(m) == MillerRabinBase(3) == plain_loop_witness(m, TRIAL_BOUND)

    def test_base_2_liar_runs_bases_in_one_order_and_no_is_prime(self, monkeypatch):
        # Above the bound the witness tries the fixed bases before any random
        # one, and leaves the probable-prime question to those same tests.
        n = 3317044070243339695661221
        bases = []

        def strong(m, a):
            bases.append(a)
            return _strong_probable_prime(m, a)

        def refuse(m):
            raise AssertionError("is_prime ran")

        monkeypatch.setattr(arith, "_strong_probable_prime", strong)
        monkeypatch.setattr(arith, "is_prime", refuse)
        assert compositeness_witness(n) == MillerRabinBase(3)
        assert bases == [2, 3]

    def test_prime_above_the_bound(self):
        assert compositeness_witness(2**89 - 1) == NotComposite() == plain_loop_witness(2**89 - 1, TRIAL_BOUND)

    def test_trial_bound_decides_between_divisor_and_base_2(self, monkeypatch):
        # The last prime <= TRIAL_BOUND is a divisor; the primes past it, up
        # to the last one <= 10**6 and beyond, leave a base unless the bound
        # is raised past them.
        for p, trial_bound, expected in (
            (99991, TRIAL_BOUND, Divisor(99991)),
            (999983, TRIAL_BOUND, MillerRabinBase(2)),
            (1000003, TRIAL_BOUND, MillerRabinBase(2)),
            (1000003, 2 * 10**6, Divisor(1000003)),
        ):
            n = p * (2**89 - 1)
            monkeypatch.setattr(arith, "TRIAL_BOUND", trial_bound)
            assert compositeness_witness(n) == expected == plain_loop_witness(n, trial_bound)


def plain_loop_witness(n, trial_bound, neighbour=0):
    """compositeness_witness as a plain loop: sympy primality, a `%` by every
    prime up to min(SCREEN_BOUND, trial_bound, isqrt|n|), the common factor
    with neighbour when it is a proper divisor, a `%` by every further prime
    up to min(trial_bound, isqrt|n|), then Miller-Rabin bases."""
    m = abs(n)
    if m in (0, 1) or sympy.isprime(m):
        return NotComposite()
    limit = min(trial_bound, math.isqrt(m))
    primes = [p for p in small_primes(trial_bound) if p <= limit]
    screen = [p for p in primes if p <= SCREEN_BOUND]
    for p in screen:
        if m % p == 0:
            return Divisor(p)
    g = math.gcd(m, neighbour)
    if 1 < g < m:
        return Divisor(g)
    for p in primes[len(screen) :]:
        if m % p == 0:
            return Divisor(p)
    for a in MR_DETERMINISTIC_BASES:
        if not _strong_probable_prime(m, a):
            return MillerRabinBase(a)
    rng = random.Random(0xC0FFEE)
    while True:
        a = rng.randrange(2, m - 1)
        if not _strong_probable_prime(m, a):
            return MillerRabinBase(a)


def word_blocks():
    """The primes below WORD_BLOCK_BOUND, as many to a block as keep its
    product below one CPython digit."""
    blocks = [[]]
    for p in small_primes(WORD_BLOCK_BOUND - 1):
        if math.prod(blocks[-1]) * p >= DIGIT_BASE:
            blocks.append([])
        blocks[-1].append(p)
    return blocks


WORD_BLOCKS = word_blocks()
# The number of primes up to the end of each word-size block.
WORD_ENDS = list(itertools.accumulate(map(len, WORD_BLOCKS)))
# The first and last prime of every word-size block, and the first past them.
WORD_EDGE_PRIMES = {p for block in WORD_BLOCKS for p in (block[0], block[-1])} | {sympy.nextprime(WORD_BLOCK_BOUND)}
# The trial bounds the witness is checked at: TRIAL_BOUND and one on each side.
TRIAL_BOUNDS = (10**4, TRIAL_BOUND, 10**6)
# Primes on either side of each word-size block's end (23/29 to 97/101), of a
# chunk boundary of the gcd table (and of the 128th prime), of the is_prime
# screen, and of each trial bound; and of the first, second and last group of
# chunks the scan to each trial bound takes.
SCREEN_PRIMES, GROUP_PRIMES = SCREEN_CHUNKS * CHUNK_PRIMES, GROUP_CHUNKS * CHUNK_PRIMES
GROUP_STARTS = {
    SCREEN_PRIMES + j * GROUP_PRIMES
    for bound in TRIAL_BOUNDS[1:]
    for j in (0, 1, (sympy.primepi(bound) - SCREEN_PRIMES) // GROUP_PRIMES)
}
EDGE_PRIMES = sorted(
    WORD_EDGE_PRIMES
    | {sympy.prime(i) for i in (128, 129, CHUNK_PRIMES, CHUNK_PRIMES + 1, 2 * CHUNK_PRIMES, 2 * CHUNK_PRIMES + 1)}
    | {sympy.prime(i) for lo in GROUP_STARTS for i in (lo, lo + 1)}
    | {f(bound) for bound in (SCREEN_BOUND, *TRIAL_BOUNDS) for f in (sympy.prevprime, sympy.nextprime)}
)
# Cofactors that lift p * q above MR_DETERMINISTIC_BOUND for every p.
LARGE_PRIMES = (sympy.nextprime(MR_DETERMINISTIC_BOUND), 2**89 - 1, sympy.nextprime(10**30))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(EDGE_PRIMES),
    k=st.integers(min_value=1, max_value=10**40),
    q=st.sampled_from(LARGE_PRIMES),
    trial_bound=st.sampled_from(TRIAL_BOUNDS),
)
# 10007, the first prime past 10**4, lies in the group that a walk to 10**6
# takes whole and a walk to 10**4 cuts short: the walk to 10**4 must not read
# that group's block as the walk to 10**6 left it.
@example(p=10007, k=1, q=LARGE_PRIMES[0], trial_bound=10**6)
@example(p=10007, k=1, q=LARGE_PRIMES[0], trial_bound=10**4)
def test_witness_matches_plain_loop_at_chunk_and_bound_edges(p, k, q, trial_bound):
    # p * k: p may or may not be the smallest factor; p * nextprime(p): p is
    # the largest prime <= isqrt(m); p * p: p == isqrt(m); p * q and p * q * k:
    # above the bound, where the scan runs before any Miller-Rabin round.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "TRIAL_BOUND", trial_bound)
        for n in (p * k, -p * k, p * sympy.nextprime(p), p * p, p * q, -p * q * k):
            assert compositeness_witness(n) == plain_loop_witness(n, trial_bound), n


@pytest.mark.parametrize("p", [2, 23, 29, 97])
def test_a_factor_below_100_costs_only_word_size_gcds(monkeypatch, p):
    # A 2048-bit m whose smallest prime is below 100 is found by one gcd with
    # each word-size block up to p's, each product below one CPython digit,
    # and a scan of what it shares, with no gcd against a larger block.
    below_p = math.prod(small_primes(p - 1))
    m = p * next(r for r in itertools.count(-(-(2**2047) // p)) if math.gcd(r, below_p) == 1)
    assert m.bit_length() == 2048
    seen = []

    def gcd(x, y):
        seen.append(y)
        return math.gcd(x, y)

    monkeypatch.setattr(arith, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    assert arith._smallest_prime_divisors([m], TRIAL_BOUND) == [p]
    blocks = WORD_BLOCKS[: next(i for i, block in enumerate(WORD_BLOCKS) if p in block) + 1]
    assert seen == [math.prod(block) for block in blocks]
    assert max(seen) < DIGIT_BASE


def test_screen_is_word_size_blocks_then_whole_chunks():
    # The primes below 100 come in products below one CPython digit; then the
    # screen to SCREEN_BOUND takes whole chunks of the gcd table of the trial
    # primes, so it needs no partial product.
    if DIGIT_BASE == 2**30:
        assert WORD_BLOCKS == [
            [2, 3, 5, 7, 11, 13, 17, 19, 23],
            [29, 31, 37, 41, 43],
            [47, 53, 59, 61, 67],
            [71, 73, 79, 83],
            [89, 97],
        ]
    assert SCREEN_CHUNKS * CHUNK_PRIMES == len(small_primes(SCREEN_BOUND)) == 564
    ends = [hi for _, hi, _ in arith._gcd_table(TRIAL_BOUND)[2] if hi <= 564]
    assert ends == [*WORD_ENDS, *range(CHUNK_PRIMES, 564 + 1, CHUNK_PRIMES)]


@pytest.mark.parametrize("bound", TRIAL_BOUNDS)
def test_gcd_table_tiles_the_primes_in_chunk_aligned_blocks(bound):
    # The blocks cover every trial prime once, in order; a group (a block of
    # more than one chunk) starts on a chunk edge and ends on one or at the
    # end of the list; every product is that of its block's primes.
    primes, chunks, blocks = arith._gcd_table(bound)
    assert primes == small_primes(bound)
    assert chunks == [math.prod(primes[c : c + CHUNK_PRIMES]) for c in range(0, len(primes), CHUNK_PRIMES)]
    assert [lo for lo, _, _ in blocks] == [0, *(hi for _, hi, _ in blocks[:-1])]
    assert blocks[-1][1] == len(primes)
    for lo, hi, product in blocks:
        assert lo < hi
        if hi - lo > CHUNK_PRIMES:
            assert lo % CHUNK_PRIMES == 0 and (hi % CHUNK_PRIMES == 0 or hi == len(primes)), (lo, hi)
        assert product == math.prod(primes[lo:hi]), (lo, hi)


# Primes past trial division (TRIAL_BOUND and 10**6), below and above
# MR_DETERMINISTIC_BOUND as products of two.
PAST_TRIAL_PRIMES = (sympy.nextprime(TRIAL_BOUND), 1000003, 1000033, sympy.nextprime(10**12), *LARGE_PRIMES)
# The last prime of the screen and the first one past it.
SCREEN_EDGE = (sympy.prevprime(SCREEN_BOUND), sympy.nextprime(SCREEN_BOUND))


@settings(max_examples=150, deadline=None)
@given(
    small=st.sampled_from((1, 2, 97, 1009, *SCREEN_EDGE, sympy.prevprime(TRIAL_BOUND), 999983)),
    p=st.sampled_from(PAST_TRIAL_PRIMES),
    q=st.sampled_from(PAST_TRIAL_PRIMES),
    sign=st.sampled_from((1, -1)),
    share=st.sampled_from(("p", "q", "small", "n", "none", "zero")),
    r=st.integers(-(10**12), 10**12),
)
# The screen comes before the common factor and a prime past it after, the
# whole term is no proper divisor, and a shared prime certifies a term below
# and above MR_DETERMINISTIC_BOUND.
@example(small=2, p=1000003, q=LARGE_PRIMES[0], sign=1, share="p", r=1)
@example(small=SCREEN_EDGE[0], p=1000003, q=LARGE_PRIMES[0], sign=1, share="p", r=1)
@example(small=SCREEN_EDGE[1], p=1000003, q=LARGE_PRIMES[0], sign=-1, share="p", r=1)
@example(small=1, p=1000003, q=LARGE_PRIMES[0], sign=-1, share="n", r=3)
@example(small=1, p=1000003, q=1000033, sign=1, share="q", r=7)
@example(small=1, p=1000003, q=LARGE_PRIMES[0], sign=1, share="q", r=-1)
def test_neighbour_replaces_only_a_prime_past_the_screen_or_a_base_by_the_common_factor(small, p, q, sign, share, r):
    # n = small * p * q and a neighbour k that shares p, q, small, all of n,
    # or nothing with it (r may add more).  Without k the witness is the
    # plain loop's; with k it is the plain loop's too, and differs only where
    # the one without k is a prime > SCREEN_BOUND or a Miller-Rabin base, and
    # then it is Divisor(gcd(n, k)) when that is a proper divisor.
    n = sign * small * p * q
    k = {"p": p, "q": q, "small": small, "n": n, "none": 1, "zero": 0}[share] * r
    plain = compositeness_witness(n)
    assert plain == plain_loop_witness(n, TRIAL_BOUND)
    shared = compositeness_witness(n, k)
    assert shared == plain_loop_witness(n, TRIAL_BOUND, k)
    g = math.gcd(n, k)
    past_screen = isinstance(plain, MillerRabinBase) or (isinstance(plain, Divisor) and plain.d > SCREEN_BOUND)
    if past_screen and 1 < g < abs(n):
        assert shared == Divisor(g)
    else:
        assert shared == plain


# The primes on both sides of every block edge of the screen: between the
# word-size blocks (23/29 to 97/101), at each chunk edge, and at its end
# (4093/4099).
SCREEN_EDGE_PRIMES = sorted(
    WORD_EDGE_PRIMES | {sympy.prime(k + i) for k in range(CHUNK_PRIMES, SCREEN_PRIMES + 1, CHUNK_PRIMES) for i in (0, 1)}
)
# Terms a covering list seldom holds: 0 and +-1, primes below and past the
# screen, and terms at and just below MR_DETERMINISTIC_BOUND.
ODD_TERMS = (0, 1, -1, 7, -97, 4099, 15, MR_DETERMINISTIC_BOUND, -(MR_DETERMINISTIC_BOUND - 2))


@st.composite
def term_lists(draw):
    """Lists of terms on both sides of MR_DETERMINISTIC_BOUND, with 0, +-1
    and negative terms: each is up to two primes at block edges of the
    screen, times 1, 1000003 or a large prime, and maybe times a prime past
    trial division that other terms, its neighbours or not, share."""
    shared = draw(st.sampled_from(PAST_TRIAL_PRIMES))
    xs = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            xs.append(draw(st.sampled_from(ODD_TERMS)))
            continue
        small = draw(st.lists(st.sampled_from(SCREEN_EDGE_PRIMES), max_size=2))
        big = draw(st.sampled_from((1, 1000003, *LARGE_PRIMES)))
        carried = shared if draw(st.booleans()) else 1
        xs.append(draw(st.sampled_from((1, -1))) * math.prod(small) * big * carried)
    return xs


@settings(max_examples=80, deadline=None)
@given(xs=term_lists())
@example(xs=[0, 7, 23 * 29 * LARGE_PRIMES[0], 89 * 97 * LARGE_PRIMES[1], 97 * 101 * LARGE_PRIMES[0], -4093 * 4099 * LARGE_PRIMES[2]])
@example(xs=[1000003 * LARGE_PRIMES[0], 1, 1000003 * LARGE_PRIMES[1], -1, -(MR_DETERMINISTIC_BOUND - 2)])
@example(xs=[-1000003 * LARGE_PRIMES[0], 1, -1000003 * LARGE_PRIMES[1]])
def test_bulk_screen_matches_the_per_term_witness(xs):
    # The screen gives each term its smallest prime <= SCREEN_BOUND, 2 for 0;
    # verify, which screens the terms at or above MR_DETERMINISTIC_BOUND in
    # bulk and certifies the rest one by one, gives every term of the list
    # the plain loop's witness with x_{n-2} as neighbour.  Terms that share
    # factors along a stride would give verify rules of their own, so
    # discovery is patched out.
    sieve = small_primes(SCREEN_BOUND)
    assert screen(xs) == [next((p for p in sieve if x % p == 0), None) for x in xs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "terms", lambda params, seed, n: xs)
        mp.setattr(verifier, "discover_rules", lambda xs: ())
        report = verifier.verify(RecurrenceParams(1, 1), SeedPair(1, 1), len(xs) - 1)
    neighbours = [0, 0, *xs][: len(xs)]
    assert [c.witness for c in report.certificates] == [
        plain_loop_witness(x, TRIAL_BOUND, k) for x, k in zip(xs, neighbours)
    ]


@settings(max_examples=80, deadline=None)
@given(xs=term_lists())
@example(xs=[4099 * LARGE_PRIMES[0], 1000003 * LARGE_PRIMES[1], -1000003 * LARGE_PRIMES[0], 97 * LARGE_PRIMES[2]])
def test_witness_is_the_screen_then_witness_past_screen(xs):
    # At or above MR_DETERMINISTIC_BOUND the witness is the screen's prime,
    # else witness_past_screen of |n|, with x_{n-2} as neighbour as in verify.
    for n, k in zip(xs, [0, 0, *xs]):
        if abs(n) >= MR_DETERMINISTIC_BOUND:
            p = screen([abs(n)])[0]
            two_steps = witness_past_screen(abs(n), k) if p is None else Divisor(p)
            assert compositeness_witness(n, k) == two_steps == plain_loop_witness(n, TRIAL_BOUND, k), n


def assert_witness_agrees_with_is_prime(n):
    assert isinstance(compositeness_witness(n), NotComposite) == (abs(n) < 2 or is_prime(abs(n))), n


def test_witness_agrees_with_is_prime_on_edge_products():
    # The edge and large primes, the base-2 liar above the bound, and every
    # product of two of these.
    values = [*EDGE_PRIMES, *LARGE_PRIMES, 3317044070243339695661221]
    for i, x in enumerate(values):
        for n in (x, -x, *(x * y for y in values[i:])):
            assert_witness_agrees_with_is_prime(n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(-(10**6), 10**6)
    | st.integers(-(10**40), 10**40)
    | st.tuples(st.sampled_from(EDGE_PRIMES), st.sampled_from(LARGE_PRIMES), st.integers(1, 10**6)).map(math.prod)
)
def test_witness_agrees_with_is_prime(n):
    assert_witness_agrees_with_is_prime(n)


class TestFactorize:
    def test_paper_values(self):
        assert factorize(80).factors == ((2, 4), (5, 1))
        assert factorize(78).factors == ((2, 1), (3, 1), (13, 1))
        assert factorize(13).factors == ((13, 1),)

    def test_reassembles(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randrange(2, 10**14)
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n
            for p, _ in f.factors:
                assert is_prime(p)

    def test_matches_sympy(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(2, 10**18)
            assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_matches_sympy_below_1e24(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(2, 10**24)
            assert dict(factorize(n).factors) == sympy.factorint(n), n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            list(prime_factors(0))


LAST_TRIAL_PRIME = sympy.prevprime(TRIAL_BOUND)
# The primes on both sides of each block edge of the walk: the end of each
# word-size block (23/29 to 97/101), the first chunk edge, the end of the
# screen and the end of the first group; then the last trial prime and the
# first prime past it.
BLOCK_EDGE_PRIMES = [
    sympy.prime(k + i)
    for k in (
        *WORD_ENDS,
        CHUNK_PRIMES,
        SCREEN_CHUNKS * CHUNK_PRIMES,
        (SCREEN_CHUNKS + GROUP_CHUNKS) * CHUNK_PRIMES,
    )
    for i in (0, 1)
] + [LAST_TRIAL_PRIME, sympy.nextprime(TRIAL_BOUND)]
# Those, and primes on both sides of the root of the trial bound.
TRIAL_EDGE_PRIMES = sorted(
    {2, 3, *BLOCK_EDGE_PRIMES, sympy.nextprime(TRIAL_BOUND**2)}
    | {f(math.isqrt(TRIAL_BOUND)) for f in (sympy.prevprime, sympy.nextprime)}
)


def assert_factorization(n):
    """prime_factors(n) is the factorization of |n| by sympy."""
    assert list(prime_factors(n)) == sorted(sympy.factorint(abs(n)).items()), n


class TestTrialDivision:
    """prime_factors's walk over the primes up to TRIAL_BOUND."""

    def test_edges(self):
        q = sympy.nextprime(TRIAL_BOUND)
        assert list(prime_factors(-2 * LAST_TRIAL_PRIME)) == [(2, 1), (LAST_TRIAL_PRIME, 1)]
        assert list(prime_factors(LAST_TRIAL_PRIME**2)) == [(LAST_TRIAL_PRIME, 2)]
        assert list(prime_factors(LAST_TRIAL_PRIME * q)) == [(LAST_TRIAL_PRIME, 1), (q, 1)]
        assert list(prime_factors(12 * q)) == [(2, 2), (3, 1), (q, 1)]
        # q^2 passes every trial prime but is not below LAST_TRIAL_PRIME^2,
        # so Pollard-Brent splits it.
        assert list(prime_factors(q * q)) == [(q, 2)]
        assert list(prime_factors(1)) == []
        # The block edge primes, their squares and cubes, and every product
        # of two of these.
        powers = [p**e for p in BLOCK_EDGE_PRIMES for e in (1, 2, 3)]
        for i, x in enumerate(powers):
            assert_factorization(x)
            for y in powers[i + 1 :]:
                assert_factorization(-x * y)

    def test_walk_stops_at_the_root_of_the_cofactor(self, monkeypatch):
        # Once 2**40 is divided out, the cofactor 1000003 needs primes up to
        # its root 1000 only: no gcd with a block whose primes all exceed it.
        below_root = math.prod(small_primes(1000))
        seen = []

        def gcd(x, y):
            seen.append(y)
            return math.gcd(x, y)

        monkeypatch.setattr(arith, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
        assert list(prime_factors(2**40 * 1000003)) == [(2, 40), (1000003, 1)]
        assert seen
        assert not [y.bit_length() for y in seen if math.gcd(y, below_root) == 1]

    @settings(max_examples=100, deadline=None)
    @given(
        primes=st.lists(
            st.sampled_from(TRIAL_EDGE_PRIMES) | st.integers(3, 10**9).map(sympy.prevprime),
            max_size=4,
        ),
        powers=st.lists(st.integers(1, 3), min_size=4, max_size=4),
        sign=st.sampled_from((1, -1)),
    )
    def test_matches_sympy_at_the_trial_edges(self, primes, powers, sign):
        assert_factorization(sign * math.prod(p**e for p, e in zip(primes, powers)))


class TestPrimeFactors:
    # Products of up to three factors below 10^8, so n < 10^24 and no
    # cofactor can resist Pollard-Brent's effort bound.
    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.integers(1, 10**8), min_size=1, max_size=3), sign=st.sampled_from((1, -1)))
    def test_matches_sympy(self, parts, sign):
        n = sign * math.prod(parts)
        assert list(prime_factors(n)) == sorted(sympy.factorint(abs(n)).items())

    def test_lazy_past_trial_division(self, monkeypatch):
        # 12 * p * q: the trial walk yields 2 and 3 and leaves p * q, which
        # only the Pollard-Brent stage could split.
        def refuse(*args):
            raise AssertionError("Pollard-Brent ran")

        monkeypatch.setattr(arith, "_pollard_brent", refuse)
        n = 12 * sympy.nextprime(10**12) * sympy.nextprime(10**13)
        stream = prime_factors(n)
        assert [next(stream), next(stream)] == [(2, 2), (3, 1)]
        with pytest.raises(AssertionError, match="Pollard-Brent ran"):
            next(stream)


    def test_pieces_below_the_trial_square_need_no_primality_test(self, monkeypatch):
        # Every piece Pollard-Brent splits off q1 * q2^2 * q3 is free of trial
        # primes, so one below LAST_TRIAL_PRIME^2 is prime without is_prime.
        tested = []

        def spy(m):
            tested.append(m)
            return is_prime(m)

        monkeypatch.setattr(arith, "is_prime", spy)
        q1 = sympy.nextprime(TRIAL_BOUND)
        q2, q3 = sympy.nextprime(q1), sympy.nextprime(10**12)
        assert list(prime_factors(q1 * q2**2 * q3)) == [(q1, 1), (q2, 2), (q3, 1)]
        assert tested and min(tested) >= LAST_TRIAL_PRIME**2


class TestCrt:
    def test_worked_example_minus9(self):
        assert crt_solve([(0, 3), (1, 2), (0, 5), (1, 13)]) == (105, 390)

    def test_worked_example_8(self):
        assert crt_solve([(0, 2), (2, 3), (1, 11)]) == (56, 66)

    def test_single_equation(self):
        assert crt_solve([(0, 2)]) == (0, 2)

    def test_negative_residues_normalized(self):
        x, mod = crt_solve([(-1, 3), (-2, 5)])
        assert 0 <= x < mod and x % 3 == 2 and x % 5 == 3

    def test_non_coprime_rejected(self):
        for system in ([(0, 4), (1, 6)], [(0, 4), (0, 6)]):
            with pytest.raises(NonCoprimeModuli):
                crt_solve(system)

    @pytest.mark.parametrize("system", [[(0, 0)], [(1, 3), (2, 0)], [(1, -5)]])
    def test_modulus_below_one_rejected(self, system):
        with pytest.raises(ValueError, match="< 1") as exc:
            crt_solve(system)
        assert not isinstance(exc.value, NonCoprimeModuli)

    def test_unique_solution_brute_force(self):
        rng = random.Random(6)
        for _ in range(50):
            moduli = rng.sample([2, 3, 5, 7, 11, 13], rng.randrange(1, 4))
            sys_ = [(rng.randrange(m), m) for m in moduli]
            x, mod = crt_solve(sys_)
            assert mod == math.prod(moduli)
            matches = [
                v for v in range(mod) if all(v % m == r for r, m in sys_)
            ]
            assert matches == [x]


class TestCoprimeShift:
    def test_paper_examples(self):
        assert coprime_shift(56, 63, 66) == 1
        assert coprime_shift(980, 1464, 1869) == 1
        assert coprime_shift(4, 1, 4) == 1

    def test_k_zero_when_already_coprime(self):
        assert coprime_shift(105, 134, 390) == 0

    def test_result_is_coprime(self):
        rng = random.Random(7)
        for _ in range(200):
            n1 = rng.randrange(1, 10**6)
            n2 = rng.randrange(0, 10**6)
            n3 = rng.randrange(1, 10**6)
            if math.gcd(n1, math.gcd(n2, n3)) != 1:
                continue
            k = coprime_shift(n1, n2, n3)
            assert n2 + k * n3 > n1 and math.gcd(n1, n2 + k * n3) == 1

    def test_exhaustion_is_signalled(self, monkeypatch):
        monkeypatch.setattr(arith, "COPRIME_SHIFT_CAP", 10)
        with pytest.raises(SearchExhausted, match="below 10 "):
            coprime_shift(6, 0, 6)


@pytest.fixture
def digit_limit():
    """Python's int-to-str digit limit at 640 for one test, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestUnprintableIntegers:
    # An integer past the digit limit is named by its bit length, so the
    # error is the library's own and not str()'s ValueError.
    def test_crt_solve(self, digit_limit):
        big = 2 * 10**5000
        with pytest.raises(NonCoprimeModuli) as exc:
            crt_solve([(0, big), (0, 4)])
        assert str(exc.value) == f"moduli <{big.bit_length()}-bit integer> and 4 share factor 4"
        with pytest.raises(ValueError, match=f"^modulus <{big.bit_length()}-bit integer> < 1$"):
            crt_solve([(0, -big)])

    def test_coprime_shift(self, digit_limit, monkeypatch):
        big = 2 * 10**5000
        monkeypatch.setattr(arith, "COPRIME_SHIFT_CAP", 10)
        with pytest.raises(SearchExhausted) as exc:
            coprime_shift(big, 0, 2)
        assert str(exc.value) == f"no admissible k below 10 for (<{big.bit_length()}-bit integer>, 0, 2)"

    def test_prime_factors(self, digit_limit, monkeypatch):
        n = 1000003**110  # 661 digits, and 1000003 is past the trial primes
        monkeypatch.setattr(arith, "_pollard_brent", lambda m, rng: None)
        with pytest.raises(EffortExceeded) as exc:
            list(prime_factors(n))
        assert str(exc.value) == f"could not split <{n.bit_length()}-bit integer>"


def test_small_primes_sieve():
    assert small_primes(100) == [p for p in range(101) if trial_division_is_prime(p)]
    for limit in (0, 1, 2, 3, SCREEN_BOUND, TRIAL_BOUND):
        assert small_primes(limit) == list(sympy.primerange(limit + 1)), limit
