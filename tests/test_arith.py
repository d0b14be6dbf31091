import math
import random
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from compseq import arith
from compseq.arith import (
    CHUNK_PRIMES,
    DEFAULT_TRIAL_BOUND,
    FACTOR_TRIAL_BOUND,
    GROUP_CHUNKS,
    MR_DETERMINISTIC_BASES,
    MR_DETERMINISTIC_BOUND,
    SCREEN_BOUND,
    SCREEN_CHUNKS,
    Divisor,
    MillerRabinBase,
    NonCoprimeModuli,
    NotComposite,
    SearchExhausted,
    _strong_probable_prime,
    compositeness_witness,
    coprime_shift,
    crt_solve,
    factorize,
    is_perfect_square,
    is_prime,
    prime_factors,
    small_primes,
    sqrt_if_square,
    trial_division,
)


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

    def test_mr_witness_for_large_semiprime(self):
        p = sympy.nextprime(10**10)
        q = sympy.nextprime(2 * 10**10)
        w = compositeness_witness(p * q, trial_bound=10**6)
        assert isinstance(w, MillerRabinBase)
        assert not _strong_probable_prime(p * q, w.base)

    def test_base_2_pseudoprime_above_the_bound(self):
        # 1287836183341 * 2575672366681: a strong pseudoprime to base 2 just
        # above the bound, with no prime factor <= 10**6.
        n = 3317044070243339695661221
        assert n >= MR_DETERMINISTIC_BOUND and _strong_probable_prime(n, 2)
        for m in (n, -n):
            assert compositeness_witness(m) == MillerRabinBase(3) == plain_loop_witness(m, DEFAULT_TRIAL_BOUND)

    def test_prime_above_the_bound(self):
        assert compositeness_witness(2**89 - 1) == NotComposite() == plain_loop_witness(2**89 - 1, DEFAULT_TRIAL_BOUND)

    def test_trial_bound_decides_between_divisor_and_base_2(self):
        n = 1000003 * (2**89 - 1)
        for trial_bound, expected in ((DEFAULT_TRIAL_BOUND, MillerRabinBase(2)), (2 * 10**6, Divisor(1000003))):
            assert compositeness_witness(n, trial_bound=trial_bound) == expected == plain_loop_witness(n, trial_bound)


def plain_loop_witness(n, trial_bound):
    """compositeness_witness as a plain loop: sympy primality, a `%` by every
    prime up to min(trial_bound, isqrt|n|), then Miller-Rabin bases."""
    m = abs(n)
    if m in (0, 1) or sympy.isprime(m):
        return NotComposite()
    limit = min(trial_bound, math.isqrt(m))
    for p in small_primes(trial_bound):
        if p > limit:
            break
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


# Primes on either side of a chunk boundary of the gcd table (and of the
# 128th prime), of the is_prime screen, and of both trial bounds below; and
# of the first, second and last group of chunks the scan to 10**6 takes.
SCREEN_PRIMES, GROUP_PRIMES = SCREEN_CHUNKS * CHUNK_PRIMES, GROUP_CHUNKS * CHUNK_PRIMES
GROUP_STARTS = [SCREEN_PRIMES + j * GROUP_PRIMES for j in (0, 1, (sympy.primepi(10**6) - SCREEN_PRIMES) // GROUP_PRIMES)]
EDGE_PRIMES = sorted(
    {sympy.prime(i) for i in (128, 129, CHUNK_PRIMES, CHUNK_PRIMES + 1, 2 * CHUNK_PRIMES, 2 * CHUNK_PRIMES + 1)}
    | {sympy.prime(i) for lo in GROUP_STARTS for i in (lo, lo + 1)}
    | {f(bound) for bound in (SCREEN_BOUND, 10**4, 10**6) for f in (sympy.prevprime, sympy.nextprime)}
)
# Cofactors that lift p * q above MR_DETERMINISTIC_BOUND for every p.
LARGE_PRIMES = (sympy.nextprime(MR_DETERMINISTIC_BOUND), 2**89 - 1, sympy.nextprime(10**30))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(EDGE_PRIMES),
    k=st.integers(min_value=1, max_value=10**40),
    q=st.sampled_from(LARGE_PRIMES),
    trial_bound=st.sampled_from((10**4, 10**6)),
)
def test_witness_matches_plain_loop_at_chunk_and_bound_edges(p, k, q, trial_bound):
    # p * k: p may or may not be the smallest factor; p * nextprime(p): p is
    # the largest prime <= isqrt(m); p * p: p == isqrt(m); p * q and p * q * k:
    # above the bound, where the scan runs before any Miller-Rabin round.
    for n in (p * k, -p * k, p * sympy.nextprime(p), p * p, p * q, -p * q * k):
        assert compositeness_witness(n, trial_bound=trial_bound) == plain_loop_witness(n, trial_bound), n


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(49)
        assert sqrt_if_square(49) == 7
        assert not is_perfect_square(-4)
        assert not is_perfect_square(2)

    def test_case2_polynomial_value(self):
        a, b = 2, 3
        v = 16 * b**8 + 8 * a * b**5 - 8 * b**4 - 4 * b**3 - 2 * a * b + 1
        assert not is_perfect_square(v)

    def test_squares_and_neighbors(self):
        for k in range(1, 10**4):
            assert is_perfect_square(k * k)
            assert not is_perfect_square(k * k + 1)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_matches_isqrt(self, n):
        r = math.isqrt(n)
        assert is_perfect_square(n) == (r * r == n)


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
            assert f.reassemble() == n
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
            list(trial_division(0))


LAST_TRIAL_PRIME = sympy.prevprime(FACTOR_TRIAL_BOUND)
# The primes on both sides of each block edge of the walk: the first chunk
# edge, the end of the screen and the end of the first group; then the last
# trial prime and the first prime past it.
BLOCK_EDGE_PRIMES = [
    sympy.prime(k + i)
    for k in (CHUNK_PRIMES, SCREEN_CHUNKS * CHUNK_PRIMES, (SCREEN_CHUNKS + GROUP_CHUNKS) * CHUNK_PRIMES)
    for i in (0, 1)
] + [LAST_TRIAL_PRIME, sympy.nextprime(FACTOR_TRIAL_BOUND)]
# Those, and primes on both sides of the root of the trial bound.
TRIAL_EDGE_PRIMES = sorted(
    {2, 3, *BLOCK_EDGE_PRIMES, sympy.nextprime(FACTOR_TRIAL_BOUND**2)}
    | {f(math.isqrt(FACTOR_TRIAL_BOUND)) for f in (sympy.prevprime, sympy.nextprime)}
)


def assert_prefix_of_factorization(n):
    """trial_division(n) is a prefix of the factorization of |n| by sympy, and
    leaves 1 or a cofactor with no prime factor <= FACTOR_TRIAL_BOUND that
    it could not prove prime; prime_factors(n) is the whole of it."""
    found = list(trial_division(n))
    full = sorted(sympy.factorint(abs(n)).items())
    assert list(prime_factors(n)) == full, n
    assert found == full[: len(found)], n
    assert all(p > FACTOR_TRIAL_BOUND for p, _ in full[len(found) :]), n
    rest = abs(n) // math.prod(p**e for p, e in found)
    assert rest == 1 or rest > LAST_TRIAL_PRIME**2, n


class TestTrialDivision:
    def test_edges(self):
        q = sympy.nextprime(FACTOR_TRIAL_BOUND)
        assert list(trial_division(-2 * LAST_TRIAL_PRIME)) == [(2, 1), (LAST_TRIAL_PRIME, 1)]
        assert list(trial_division(LAST_TRIAL_PRIME**2)) == [(LAST_TRIAL_PRIME, 2)]
        assert list(trial_division(LAST_TRIAL_PRIME * q)) == [(LAST_TRIAL_PRIME, 1), (q, 1)]
        assert list(trial_division(12 * q)) == [(2, 2), (3, 1), (q, 1)]
        # q^2 passes every trial prime but is not below LAST_TRIAL_PRIME^2.
        assert list(trial_division(q * q)) == []
        assert list(trial_division(1)) == []
        # The block edge primes, their squares and cubes, and every product
        # of two of these.
        powers = [p**e for p in BLOCK_EDGE_PRIMES for e in (1, 2, 3)]
        for i, x in enumerate(powers):
            assert_prefix_of_factorization(x)
            for y in powers[i + 1 :]:
                assert_prefix_of_factorization(-x * y)

    def test_walk_stops_at_the_root_of_the_cofactor(self, monkeypatch):
        # Once 2**40 is divided out, the cofactor 1000003 needs primes up to
        # its root 1000 only: no gcd with a block whose primes all exceed it.
        below_root = math.prod(small_primes(1000))
        seen = []

        def gcd(x, y):
            seen.append(y)
            return math.gcd(x, y)

        monkeypatch.setattr(arith, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
        assert list(trial_division(2**40 * 1000003)) == [(2, 40), (1000003, 1)]
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
    def test_a_prefix_of_the_factorization(self, primes, powers, sign):
        assert_prefix_of_factorization(sign * math.prod(p**e for p, e in zip(primes, powers)))


class TestPrimeFactors:
    # Products of up to three factors below 10^8, so n < 10^24 and no
    # cofactor can resist Pollard-Brent's effort bound.
    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.integers(1, 10**8), min_size=1, max_size=3), sign=st.sampled_from((1, -1)))
    def test_matches_sympy(self, parts, sign):
        n = sign * math.prod(parts)
        assert list(prime_factors(n)) == sorted(sympy.factorint(abs(n)).items())

    def test_lazy_past_trial_division(self, monkeypatch):
        # 12 * p * q: trial division yields 2 and 3 and leaves p * q, which
        # only the Pollard-Brent stage could split.
        def refuse(*args):
            raise AssertionError("Pollard-Brent ran")

        monkeypatch.setattr(arith, "_pollard_brent", refuse)
        n = 12 * sympy.nextprime(10**12) * sympy.nextprime(10**13)
        stream = prime_factors(n)
        assert [next(stream), next(stream)] == [(2, 2), (3, 1)]
        with pytest.raises(AssertionError, match="Pollard-Brent ran"):
            next(stream)


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


def test_small_primes_sieve():
    assert small_primes(100) == [p for p in range(101) if trial_division_is_prime(p)]
