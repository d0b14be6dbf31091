"""Arbitrary-precision integer utilities.

Primality testing, compositeness witnesses, factorization, a Chinese
remainder solver, and integer texts for failure messages.  Everything here
is a pure function of its inputs: the random Miller-Rabin bases and
Pollard-Brent starts come from generators with fixed seeds.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple


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

# Random Miller-Rabin bases after the fixed ones, at or above MR_DETERMINISTIC_BOUND.
MR_ROUNDS = 64
# compositeness_witness divides by the primes up to this bound before Miller-Rabin.
TRIAL_BOUND = 10**6
# prime_factors divides by the primes up to this bound before Pollard-Brent.
FACTOR_TRIAL_BOUND = 10**5
# Pollard-Brent iterations per attempt before a cofactor counts as resisting.
RHO_EFFORT = 10**6
COPRIME_SHIFT_CAP = 10**6

# is_prime answers n <= SCREEN_BOUND from the sieve and, above it, rejects
# every n with a prime factor <= SCREEN_BOUND by gcd before Miller-Rabin.
SCREEN_BOUND = 4096
# Primes per chunk of the gcd table.  The 564 primes below SCREEN_BOUND are
# exactly the first four chunks, so the screen needs no partial product.  The
# walk splits the first chunk into two blocks: the FIRST_BLOCK_PRIMES primes
# below 100, then the other 116.  Almost every term of a covering sequence has
# a factor below 100, and then costs one small gcd.
CHUNK_PRIMES = 141
SCREEN_CHUNKS = 4
FIRST_BLOCK_PRIMES = 25
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


def _smallest_prime_divisor(m: int, primes: list[int], limit: int, lo: int = 0) -> int | None:
    """The smallest p in `primes[lo:]`, a list from small_primes, with
    p <= limit that divides m, or None; lo is 0 or the end of a block.

    One gcd per block: the first FIRST_BLOCK_PRIMES primes, the rest of the
    first chunk, each other chunk of the screen, then groups of GROUP_CHUNKS
    chunks, the last cut short where the list ends.  A block of one chunk or
    less that shares a factor with m is scanned prime by prime at once, with
    no second gcd.  A group that shares one takes a gcd per chunk until one
    shares it too (the last chunk needs none), and only that chunk is
    scanned.
    """
    screen = SCREEN_CHUNKS * CHUNK_PRIMES
    while lo < len(primes) and primes[lo] <= limit:
        step = CHUNK_PRIMES if lo < screen else GROUP_CHUNKS * CHUNK_PRIMES
        hi = min(lo - lo % CHUNK_PRIMES + step if lo else FIRST_BLOCK_PRIMES, len(primes))
        g = math.gcd(m, _block_product(primes, lo, hi))
        if g == 1:
            lo = hi
            continue
        if hi - lo > CHUNK_PRIMES:
            while lo + CHUNK_PRIMES < hi and math.gcd(g, _block_product(primes, lo, lo + CHUNK_PRIMES)) == 1:
                lo += CHUNK_PRIMES
            hi = min(lo + CHUNK_PRIMES, hi)
        for p in primes[lo:hi]:
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


def _mr_witness(n: int) -> int | None:
    """The first base at which the strong test proves odd n > 3 composite, or
    None.  Bases come in one order: MR_DETERMINISTIC_BASES, then, at or above
    MR_DETERMINISTIC_BOUND, MR_ROUNDS bases from Random(0xC0FFEE)."""
    bases: Iterable[int] = MR_DETERMINISTIC_BASES
    if n >= MR_DETERMINISTIC_BOUND:
        rng = random.Random(0xC0FFEE)
        bases = chain(bases, (rng.randrange(2, n - 1) for _ in range(MR_ROUNDS)))
    return next((a for a in bases if not _strong_probable_prime(n, a)), None)


def is_prime(n: int) -> bool:
    """Primality test: a sieve lookup up to SCREEN_BOUND.  Above it, n is
    composite when _smallest_prime_divisor finds a prime <= SCREEN_BOUND
    dividing it (a few gcds, no modular exponentiation), else when
    _mr_witness finds a base; that is exact below MR_DETERMINISTIC_BOUND."""
    screen = small_primes(SCREEN_BOUND)
    if n <= SCREEN_BOUND:
        i = bisect_left(screen, n)
        return i < len(screen) and screen[i] == n
    return _smallest_prime_divisor(n, screen, SCREEN_BOUND) is None and _mr_witness(n) is None


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


class CompositenessCertificate(NamedTuple):
    """Why |x_index| is composite: term is x_index, witness its certificate.

    The one record of a certified term: `verifier.verify` makes one per
    term of a recurrence, and `lucas.composite_scan` one per Lucas term
    u_index.  An immutable, hashable tuple record, like covering.Rule, so
    that it costs no more than a tuple; `_replace` gives an edited copy.
    """

    index: int
    term: int
    witness: Witness


def compositeness_witness(n: int, neighbour: int = 0) -> Witness:
    """Produce a checkable witness that |n| is composite, or NotComposite.

    A composite |n| gets, in this order: Divisor(p) for the smallest prime
    p <= min(SCREEN_BOUND, isqrt|n|) dividing it; Divisor(g) for
    g = gcd(|n|, neighbour) when 1 < g < |n|; Divisor(p) for the smallest
    prime p <= min(TRIAL_BOUND, isqrt|n|) past the screen dividing it; else
    the first base _mr_witness finds, or NotComposite when there is none.
    A recurrence term x_n passes x_{n-2} as neighbour: x_n = b*x_{n-2}
    (mod a), so a prime of a dividing x_{n-2} divides x_n, and the gcd saves
    the walk to TRIAL_BOUND, whose primes are only sieved when a term needs
    them.  The default 0 never gives a proper divisor, since gcd(m, 0) = m,
    so a one-argument call gets the smallest prime <= TRIAL_BOUND.

    Below MR_DETERMINISTIC_BOUND, is_prime is exact and cheap, so it runs
    first and a prime gets NotComposite before any scan.  At or above it,
    is_prime never runs: the screen comes first, then the common factor
    with neighbour, the rest of the walk, then _mr_witness.
    """
    m = abs(n)
    if m in (0, 1) or (m < MR_DETERMINISTIC_BOUND and is_prime(m)):
        return NotComposite()
    limit = TRIAL_BOUND if m >= TRIAL_BOUND * TRIAL_BOUND else math.isqrt(m)
    screen = small_primes(SCREEN_BOUND)
    p = _smallest_prime_divisor(m, screen, min(limit, SCREEN_BOUND))
    if p is None:
        g = math.gcd(m, neighbour)
        if 1 < g < m:
            return Divisor(g)
        if limit > SCREEN_BOUND:
            p = _smallest_prime_divisor(m, small_primes(TRIAL_BOUND), limit, len(screen))
    if p is not None:
        return Divisor(p)
    base = _mr_witness(m)
    return NotComposite() if base is None else MillerRabinBase(base)


def int_text(n: int) -> str:
    """n in decimal, or "<B-bit integer>" past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


@dataclass(frozen=True)
class PrimeFactorization:
    """|value| = product of p**e over factors; primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

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


def prime_factors(n: int) -> Iterator[tuple[int, int]]:
    """Yield (p, e) with p**e exactly dividing |n| for every prime p of |n|,
    p ascending: first the primes <= FACTOR_TRIAL_BOUND, then the
    Pollard-Brent split of the cofactor they leave, sorted.

    Each trial prime is the smallest prime divisor of the current cofactor m
    up to isqrt(m), from _smallest_prime_divisor; the walk stops when there
    is none.  The m it leaves has no prime factor up to min(isqrt(m), the
    last trial prime), so every piece of m below the square of the last
    trial prime is prime without a test.  Runs lazily: a caller that
    stops inside the trial primes never starts Pollard-Brent.  Raises
    EffortExceeded when a composite cofactor resists splitting within
    RHO_EFFORT.
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
    counts: dict[int, int] = {}
    rng = random.Random(0xFAC70)
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < primes[-1] ** 2 or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng)
        if d is None:
            raise EffortExceeded(f"could not split {int_text(m)}")
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
            raise ValueError(f"modulus {int_text(m)} < 1")
        g = math.gcd(mod, m)
        if g != 1:
            raise NonCoprimeModuli(f"moduli {int_text(mod)} and {int_text(m)} share factor {int_text(g)}")
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
    inputs = ", ".join(map(int_text, (n1, n2, n3)))
    raise SearchExhausted(f"no admissible k below {COPRIME_SHIFT_CAP} for ({inputs})")
