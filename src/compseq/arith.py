"""Arbitrary-precision integer utilities.

Primality testing, compositeness witnesses, factorization, perfect-square
detection, and a Chinese remainder solver.  Everything here is a pure
function of its inputs: the random Miller-Rabin bases and Pollard-Brent
starts come from generators with fixed seeds.
"""

from __future__ import annotations

import functools
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

# Random Miller-Rabin rounds at or above MR_DETERMINISTIC_BOUND.
MR_ROUNDS = 64
DEFAULT_TRIAL_BOUND = 10**6
# trial_division divides by the primes up to this bound before Pollard-Brent.
FACTOR_TRIAL_BOUND = 10**5
# Pollard-Brent iterations per attempt before a cofactor counts as resisting.
RHO_EFFORT = 10**6
COPRIME_SHIFT_CAP = 10**6

# is_prime answers n <= SCREEN_BOUND from the sieve and, above it, rejects
# every n with a prime factor <= SCREEN_BOUND by gcd before Miller-Rabin.
SCREEN_BOUND = 4096
# Primes per chunk of the gcd table.  The 564 primes below SCREEN_BOUND are
# exactly the first four chunks, so the screen needs no partial product.
CHUNK_PRIMES = 141
SCREEN_CHUNKS = 4
# Chunks per group past the screen: _smallest_prime_divisor takes one gcd per
# group there and splits only a group that shares a factor into its chunks.
GROUP_CHUNKS = 16


@functools.cache
def small_primes(limit: int) -> list[int]:
    """Primes up to limit by a sieve, cached."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


# (lo, hi) -> product of the primes with indices [lo, hi).  Every small_primes
# list is a prefix of the same sequence, so one key serves every list; a
# block is built the first time a walk reaches it.
_block_products: dict[tuple[int, int], int] = {}


def _block_product(primes: list[int], lo: int, hi: int) -> int:
    """Product of primes[lo:hi], cached; a block longer than one chunk is
    multiplied out of its chunks' products."""
    product = _block_products.get((lo, hi))
    if product is None:
        if hi - lo > CHUNK_PRIMES:
            chunks = range(lo, hi, CHUNK_PRIMES)
            product = math.prod(_block_product(primes, c, min(c + CHUNK_PRIMES, hi)) for c in chunks)
        else:
            product = math.prod(primes[lo:hi])
        _block_products[lo, hi] = product
    return product


def _smallest_prime_divisor(m: int, primes: list[int], limit: int) -> int | None:
    """The smallest p in `primes`, a list from small_primes, with p <= limit
    that divides m, or None.

    One gcd per chunk of the screen, then one per group of GROUP_CHUNKS
    chunks, the last cut short where the list ends.  Only a block that shares
    a factor with m is split, and only the first of its chunks that shares
    one is scanned prime by prime.
    """
    screen = SCREEN_CHUNKS * CHUNK_PRIMES
    lo = 0
    while lo < len(primes) and primes[lo] <= limit:
        hi = min(lo + (CHUNK_PRIMES if lo < screen else GROUP_CHUNKS * CHUNK_PRIMES), len(primes))
        g = math.gcd(m, _block_product(primes, lo, hi))
        if g == 1:
            lo = hi
            continue
        while math.gcd(g, _block_product(primes, lo, min(lo + CHUNK_PRIMES, hi))) == 1:
            lo += CHUNK_PRIMES
        for p in primes[lo : lo + CHUNK_PRIMES]:
            if g % p == 0:
                return p if p <= limit else None
    return None


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


def is_prime(n: int) -> bool:
    """Primality test.

    n <= SCREEN_BOUND is looked up in the sieve.  Above it, n is composite
    when gcd(n, product of the primes <= SCREEN_BOUND) != 1, taken chunk by
    chunk from the block cache, so a composite with a small factor costs a
    few gcds and no modular exponentiation.  Only n that passes this screen
    reaches Miller-Rabin: deterministic (fixed base set) below
    MR_DETERMINISTIC_BOUND, MR_ROUNDS random bases from Random(0xC0FFEE)
    above it.
    """
    screen = small_primes(SCREEN_BOUND)
    if n <= SCREEN_BOUND:
        i = bisect_left(screen, n)
        return i < len(screen) and screen[i] == n
    for lo in range(0, len(screen), CHUNK_PRIMES):
        if math.gcd(n, _block_product(screen, lo, lo + CHUNK_PRIMES)) != 1:
            return False
    if n < MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in MR_DETERMINISTIC_BASES)
    rng = random.Random(0xC0FFEE)
    for _ in range(MR_ROUNDS):
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


def compositeness_witness(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> Witness:
    """Produce a checkable witness that |n| is composite, or NotComposite.

    A composite |n| gets Divisor(p) for the smallest prime
    p <= min(trial_bound, isqrt|n|) dividing it, from _smallest_prime_divisor.
    Without such p, it gets the first Miller-Rabin witness among the fixed
    bases 2, 3, 5, ..., then among random bases from Random(0xC0FFEE).

    Below MR_DETERMINISTIC_BOUND, is_prime is exact and cheap, so it runs
    first and a prime gets NotComposite before any scan.  At or above it,
    the definite certificates come first: the divisor scan, then base 2.
    Only when base 2 is a liar does the probabilistic is_prime run (a
    probable prime gets NotComposite), and the search go on from base 3.
    """
    m = abs(n)
    below = m < MR_DETERMINISTIC_BOUND
    if m in (0, 1) or (below and is_prime(m)):
        return NotComposite()
    limit = trial_bound if m >= trial_bound * trial_bound else math.isqrt(m)
    p = _smallest_prime_divisor(m, small_primes(trial_bound), limit)
    if p is not None:
        return Divisor(p)
    bases = MR_DETERMINISTIC_BASES
    if not below:
        if not _strong_probable_prime(m, 2):
            return MillerRabinBase(2)
        if is_prime(m):
            return NotComposite()
        bases = bases[1:]
    for a in bases:
        if not _strong_probable_prime(m, a):
            return MillerRabinBase(a)
    rng = random.Random(0xC0FFEE)
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


def _pollard_brent(n: int, rng: random.Random) -> int | None:
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
            if count > RHO_EFFORT:
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
    prime p <= FACTOR_TRIAL_BOUND dividing n.

    Each p is the smallest prime divisor of the current cofactor m up to
    isqrt(m), from _smallest_prime_divisor; the walk stops when there is
    none.  Runs lazily, so a caller that needs only the smallest primes
    stops it early.  A cofactor below the square of the last trial prime
    then has no prime factor up to its root, so it is prime and is yielded
    last, whatever its size.  Otherwise what is left, |n| divided by every
    yielded p**e, is 1 or has no prime factor <= FACTOR_TRIAL_BOUND, and is
    not factored here.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    primes = small_primes(FACTOR_TRIAL_BOUND)
    while (p := _smallest_prime_divisor(m, primes, math.isqrt(m))) is not None:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        yield p, e
    if 1 < m < primes[-1] ** 2:
        yield m, 1


def prime_factors(n: int) -> Iterator[tuple[int, int]]:
    """Yield (p, e) with p**e exactly dividing |n| for every prime p of |n|,
    p ascending: trial_division's pairs, then the Pollard-Brent split of the
    cofactor it leaves, sorted.

    Runs lazily: a caller that stops inside trial_division's pairs never
    starts Pollard-Brent.  Raises EffortExceeded when a composite cofactor
    resists splitting within RHO_EFFORT.
    """
    m = abs(n)
    for p, e in trial_division(n):
        yield p, e
        m //= p**e
    counts: dict[int, int] = {}
    rng = random.Random(0xFAC70)
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng)
        if d is None:
            raise EffortExceeded(f"could not split {m}")
        stack.extend((d, m // d))
    yield from sorted(counts.items())


def factorize(n: int) -> PrimeFactorization:
    """Complete prime factorization of |n|, collected from prime_factors.

    Raises EffortExceeded when a composite cofactor resists splitting within
    RHO_EFFORT.
    """
    return PrimeFactorization(n, tuple(prime_factors(n)))


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


def coprime_shift(n1: int, n2: int, n3: int) -> int:
    """Smallest k >= 0 with n2 + k*n3 > n1 and gcd(n1, n2 + k*n3) = 1.

    Existence is guaranteed when no prime divides all three inputs; hitting
    COPRIME_SHIFT_CAP therefore signals a caller bug.
    """
    if n1 <= 0 or n3 <= 0 or n2 < 0:
        raise ValueError("need n1 > 0, n2 >= 0, n3 > 0")
    for k in range(COPRIME_SHIFT_CAP):
        v = n2 + k * n3
        if v > n1 and math.gcd(n1, v) == 1:
            return k
    raise SearchExhausted(f"no admissible k below {COPRIME_SHIFT_CAP} for ({n1}, {n2}, {n3})")
