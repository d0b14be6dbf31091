"""Arbitrary-precision integer utilities.

Primality testing, compositeness witnesses, factorization, perfect-square
detection, and a Chinese remainder solver.  Everything here is a pure
function of its inputs; the only randomness is the explicitly passed RNG
used for Miller-Rabin rounds above the deterministic range.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator


class NonCoprimeModuli(ValueError):
    """CRT input moduli share a common factor."""


class EffortExceeded(RuntimeError):
    """A cofactor resisted the factoring effort bound."""


class SearchExhausted(RuntimeError):
    """coprime_shift ran past its cap; indicates a precondition violation."""


# Strong-pseudoprime testing with these bases is deterministic below this
# bound (Sorenson & Webster, first 13 primes).
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

DEFAULT_MR_ROUNDS = 64
DEFAULT_TRIAL_BOUND = 10**6
# factorize divides by the primes up to this bound before Pollard-Brent.
FACTOR_TRIAL_BOUND = 10**5
DEFAULT_RHO_EFFORT = 10**6
COPRIME_SHIFT_CAP = 10**6

# is_prime answers n <= SCREEN_BOUND from the sieve and, above it, rejects
# every n with a prime factor <= SCREEN_BOUND by gcd before Miller-Rabin.
SCREEN_BOUND = 4096
# Primes per chunk of the gcd table.  The 564 primes below SCREEN_BOUND are
# exactly the first four chunks, so the screen needs no partial product.
CHUNK_PRIMES = 141
SCREEN_CHUNKS = 4
# Chunks per group past the screen: _prime_divisors takes one gcd per group
# there and splits only a group that shares a factor into its chunks.
GROUP_CHUNKS = 16


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


_small_primes_cache: dict[int, list[int]] = {}


def small_primes(limit: int = DEFAULT_TRIAL_BOUND) -> list[int]:
    """Primes up to limit, cached."""
    if limit not in _small_primes_cache:
        _small_primes_cache[limit] = _sieve(limit)
    return _small_primes_cache[limit]


# Chunk k -> product of primes with indices [k * CHUNK_PRIMES, (k + 1) * CHUNK_PRIMES).
# Every small_primes list is a prefix of the same sequence, so one table
# serves all of them; chunks are built when a scan first reaches them.
_chunk_products: dict[int, int] = {}
# (lo, hi) -> product of primes with indices [lo, hi), for each group of
# chunks past the screen that _prime_divisors has reached.
_group_products: dict[tuple[int, int], int] = {}


def _prime_chunks(primes: list[int], start: int = 0, stop: int | None = None):
    """Yield (lo, hi, product of primes[lo:hi]) over consecutive chunks of
    primes[start:stop], for `primes` a list from small_primes and `start` a
    multiple of CHUNK_PRIMES.  A chunk cut short by `stop` or by the end of
    the list is multiplied out on each visit rather than cached."""
    stop = len(primes) if stop is None else min(stop, len(primes))
    for lo in range(start, stop, CHUNK_PRIMES):
        hi = lo + CHUNK_PRIMES
        if hi > stop:
            yield lo, stop, math.prod(primes[lo:stop])
            return
        k = lo // CHUNK_PRIMES
        product = _chunk_products.get(k)
        if product is None:
            product = _chunk_products[k] = math.prod(primes[lo:hi])
        yield lo, hi, product


def _prime_groups(primes: list[int]):
    """Yield (lo, hi, product of primes[lo:hi]) over `primes`, a list from
    small_primes: the screen's chunks one by one, then groups of
    GROUP_CHUNKS chunks, the last one cut short where the list ends.  A
    group's product is multiplied out of its chunk products the first time
    a scan reaches it."""
    screen = SCREEN_CHUNKS * CHUNK_PRIMES
    yield from _prime_chunks(primes, 0, screen)
    for lo in range(screen, len(primes), GROUP_CHUNKS * CHUNK_PRIMES):
        hi = min(lo + GROUP_CHUNKS * CHUNK_PRIMES, len(primes))
        product = _group_products.get((lo, hi))
        if product is None:
            product = _group_products[lo, hi] = math.prod(
                chunk for _, _, chunk in _prime_chunks(primes, lo, hi)
            )
        yield lo, hi, product


def _prime_divisors(m: int, primes: list[int], limit: int) -> Iterator[int]:
    """Yield, in increasing order, the p in `primes` with p <= limit that
    divide m.

    One gcd per block of _prime_groups; only a block that shares a factor
    with m is split into its chunks, and only a chunk that shares one is
    searched prime by prime."""
    for lo, hi, product in _prime_groups(primes):
        if primes[lo] > limit:
            return
        g = math.gcd(m, product)
        if g == 1:
            continue
        for lo, hi, chunk in _prime_chunks(primes, lo, hi):
            h = math.gcd(g, chunk)
            if h == 1:
                continue
            for p in primes[lo:hi]:
                if p > limit:
                    return
                if h % p == 0:
                    yield p


def _strong_probable_prime(n: int, base: int) -> bool:
    """Strong (Miller-Rabin) test; True means n is a probable prime to base."""
    if base % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS, rng: random.Random | None = None) -> bool:
    """Primality test.

    n <= SCREEN_BOUND is looked up in the sieve.  Above it, n is composite
    when gcd(n, product of the primes <= SCREEN_BOUND) != 1, taken chunk by
    chunk, so a composite with a small factor costs a few gcds and no
    modular exponentiation.  Only n that passes this screen reaches
    Miller-Rabin: deterministic (fixed base set) below MR_DETERMINISTIC_BOUND,
    `rounds` random bases from `rng` above it.
    """
    screen = small_primes(SCREEN_BOUND)
    if n <= SCREEN_BOUND:
        i = bisect_left(screen, n)
        return i < len(screen) and screen[i] == n
    for _, _, product in _prime_chunks(screen):
        if math.gcd(n, product) != 1:
            return False
    if n < MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in MR_DETERMINISTIC_BASES)
    rng = rng or random.Random(0xC0FFEE)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if not _strong_probable_prime(n, a):
            return False
    return True


@dataclass(frozen=True)
class Divisor:
    """A nontrivial divisor d of n with 1 < d < |n|."""

    d: int
    kind = "divisor"


@dataclass(frozen=True)
class MillerRabinBase:
    """A base at which the strong test proves n composite."""

    base: int
    kind = "mr_base"


@dataclass(frozen=True)
class NotComposite:
    """n is 0, +-1, or has prime absolute value."""

    kind = "not_composite"


Witness = Divisor | MillerRabinBase | NotComposite


def compositeness_witness(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rng: random.Random | None = None,
) -> Witness:
    """Produce a checkable witness that |n| is composite, or NotComposite.

    A composite |n| gets Divisor(p) for the smallest prime
    p <= min(trial_bound, isqrt|n|) dividing it, the first that
    _prime_divisors yields.  Without such p, it gets the first Miller-Rabin
    witness among the fixed bases 2, 3, 5, ..., then among random bases.

    Below MR_DETERMINISTIC_BOUND, is_prime is exact and cheap, so it runs
    first and a prime gets NotComposite before any scan.  At or above it,
    the definite certificates come first: the divisor scan, then base 2.
    Only when base 2 is a liar does the probabilistic is_prime run (a
    probable prime gets NotComposite), and the search go on from base 3.
    So `rng` is drawn from only for such n: by is_prime's rounds, then for
    random witness bases past the fixed ones.  When `rng` is None, each of
    the two starts its own Random(0xC0FFEE).
    """
    m = abs(n)
    below = m < MR_DETERMINISTIC_BOUND
    if m in (0, 1) or (below and is_prime(m)):
        return NotComposite()
    limit = trial_bound if m >= trial_bound * trial_bound else math.isqrt(m)
    p = next(_prime_divisors(m, small_primes(trial_bound), limit), None)
    if p is not None:
        return Divisor(p)
    bases = MR_DETERMINISTIC_BASES
    if not below:
        if not _strong_probable_prime(m, 2):
            return MillerRabinBase(2)
        if is_prime(m, rng=rng):
            return NotComposite()
        bases = bases[1:]
    for a in bases:
        if not _strong_probable_prime(m, a):
            return MillerRabinBase(a)
    rng = rng or random.Random(0xC0FFEE)
    for _ in range(10_000):
        a = rng.randrange(2, m - 1)
        if not _strong_probable_prime(m, a):
            return MillerRabinBase(a)
    raise RuntimeError(f"no compositeness witness found for {n}")  # pragma: no cover


def sqrt_if_square(n: int) -> int | None:
    """Integer square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_perfect_square(n: int) -> bool:
    return sqrt_if_square(n) is not None


@dataclass(frozen=True)
class PrimeFactorization:
    """|value| = product of p**e over factors; primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def reassemble(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _pollard_brent(n: int, effort: int, rng: random.Random) -> int | None:
    """Brent's variant of Pollard rho; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
    for _ in range(20):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            count += r
            if count > effort:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def trial_division(n: int) -> Iterator[tuple[int, int]]:
    """Yield (p, e) with p**e exactly dividing |n|, p ascending, for every
    prime p <= FACTOR_TRIAL_BOUND dividing n, read from _prime_divisors.

    Runs lazily, so a caller that needs only the smallest primes stops it
    early.  A cofactor that trial division proves prime (it stops once p * p
    exceeds the cofactor) is yielded last, whatever its size.  Otherwise
    what is left, |n| divided by every yielded p**e, is 1 or has no prime
    factor <= FACTOR_TRIAL_BOUND, and is not factored here.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    primes = small_primes(FACTOR_TRIAL_BOUND)
    for p in _prime_divisors(m, primes, math.isqrt(m)):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        yield p, e
        if m < p * p:
            break
    # When the loop broke, m has no prime factor up to p and is below p * p.
    # When the walk ran out, m has no prime factor up to min(isqrt|n|,
    # primes[-1]): past isqrt|n| there is room for only one, and a composite
    # m with none up to primes[-1] is at least the square of the next prime.
    # Either way 1 < m < primes[-1]**2 makes m prime.
    if 1 < m < primes[-1] ** 2:
        yield m, 1


def factorize(
    n: int,
    effort: int = DEFAULT_RHO_EFFORT,
    rng: random.Random | None = None,
) -> PrimeFactorization:
    """Complete prime factorization of |n|: trial_division, then Pollard-Brent
    splitting of the cofactor it leaves.

    Raises EffortExceeded when a composite cofactor resists splitting within
    the effort bound.
    """
    counts = dict(trial_division(n))
    rng = rng or random.Random(0xFAC70)
    m = abs(n) // math.prod(p**e for p, e in counts.items())
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m, effort, rng)
        if d is None:
            raise EffortExceeded(f"could not split {m}")
        stack.extend((d, m // d))
    return PrimeFactorization(n, tuple(sorted(counts.items())))


def crt_solve(system: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r (mod m) for each pair (r, m); the moduli must be >= 1 and
    pairwise coprime.  Returns (solution, modulus) with 0 <= solution < modulus."""
    x, mod = 0, 1
    for r, m in system:
        if m < 1:
            raise ValueError(f"modulus {m} < 1")
        g = math.gcd(mod, m)
        if g != 1:
            raise NonCoprimeModuli(f"moduli {mod} and {m} share factor {g}")
        x += mod * ((r - x) * pow(mod, -1, m) % m)
        mod *= m
    return x, mod


def coprime_shift(
    n1: int,
    n2: int,
    n3: int,
    require_greater: bool = False,
    cap: int = COPRIME_SHIFT_CAP,
) -> int:
    """Smallest k >= 0 with gcd(n1, n2 + k*n3) = 1 (and n2 + k*n3 > n1 if asked).

    Existence is guaranteed when no prime divides all three inputs; hitting
    the cap therefore signals a caller bug.
    """
    if n1 <= 0 or n3 <= 0 or n2 < 0:
        raise ValueError("need n1 > 0, n2 >= 0, n3 > 0")
    for k in range(cap):
        v = n2 + k * n3
        if require_greater and v <= n1:
            continue
        if math.gcd(n1, v) == 1:
            return k
    raise SearchExhausted(f"no admissible k below {cap} for ({n1}, {n2}, {n3})")
