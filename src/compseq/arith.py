"""Arbitrary-precision integer utilities.

Primality testing, compositeness witnesses, factorization, a Chinese
remainder solver, and integer texts for failure messages.  Everything here
is a pure function of its inputs: the random Miller-Rabin bases and
Pollard-Brent starts come from generators with fixed seeds.

Trial division is one walk over a table of blocks of the primes up to
TRIAL_BOUND, one gcd per block for a whole list of terms (`screen` walks it
to SCREEN_BOUND); its first blocks are word-size products, which reduce a
term in one pass.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, repeat
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
# The one list of trial primes ends here: witness_past_screen divides by them
# before Miller-Rabin, prime_factors before Pollard-Brent.
TRIAL_BOUND = 10**5
# Pollard-Brent iterations per attempt before a cofactor counts as resisting.
RHO_EFFORT = 10**6
COPRIME_SHIFT_CAP = 10**6

# screen walks the trial primes up to this bound; is_prime uses it to reject
# every n > TRIAL_BOUND with a prime factor <= SCREEN_BOUND before Miller-Rabin.
SCREEN_BOUND = 4096
# The gcd table.  Its first blocks hold the primes below WORD_BLOCK_BOUND, as
# many to a block as keep the product one CPython digit, below DIGIT_BASE
# (2**30 on 64-bit builds: 2..23, 29..43, 47..67, 71..83, 89..97).  CPython
# reduces a term by a one-digit number in one pass, so such a gcd costs a
# fraction of one with a longer product, and almost every term of a covering
# sequence has a factor below 100.  The rest of the first chunk of
# CHUNK_PRIMES primes follows, then each other chunk of the screen: its 564
# primes are exactly four chunks, so it needs no partial product.
DIGIT_BASE = 1 << sys.int_info.bits_per_digit
WORD_BLOCK_BOUND = 100
CHUNK_PRIMES = 141
SCREEN_CHUNKS = 4
# Chunks per group past the screen: the walk takes one gcd per group there and
# splits only a group that shares a factor into its chunks.
GROUP_CHUNKS = 16


@functools.cache
def small_primes(limit: int) -> list[int]:
    """Primes up to limit by a sieve, cached."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    odd = compress(range(3, limit + 1, 2), flags[3::2])  # reading only odd flags makes half the ints
    return [2, *odd] if limit >= 2 else []


@functools.cache
def _gcd_table(bound: int) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """The gcd table of the primes up to bound, built once per bound: the
    primes, the product of each chunk primes[c : c + CHUNK_PRIMES], and the
    blocks (lo, hi, product of primes[lo:hi]) in walk order, the last cut
    short where the list ends.  The one statement of the table's layout."""
    primes = small_primes(bound)
    chunks = [math.prod(primes[c : c + CHUNK_PRIMES]) for c in range(0, len(primes), CHUNK_PRIMES)]
    blocks, lo = [], 0
    while lo < len(primes):
        if primes[lo] < WORD_BLOCK_BOUND:
            hi = lo + 1
            while primes[hi] < WORD_BLOCK_BOUND and math.prod(primes[lo : hi + 1]) < DIGIT_BASE:
                hi += 1
        else:
            step = CHUNK_PRIMES if lo < SCREEN_CHUNKS * CHUNK_PRIMES else GROUP_CHUNKS * CHUNK_PRIMES
            hi = min(lo - lo % CHUNK_PRIMES + step, len(primes))
        if hi - lo > CHUNK_PRIMES:  # a group: its chunks multiplied pairwise, faster than one by one
            factors = chunks[lo // CHUNK_PRIMES : -(-hi // CHUNK_PRIMES)]
            while len(factors) > 1:
                factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
        else:
            factors = [math.prod(primes[lo:hi])]
        blocks.append((lo, hi, factors[0]))
        lo = hi
    return primes, chunks, blocks


def _smallest_prime_in_block(g: int, primes: list[int], chunks: list[int], lo: int, hi: int) -> int:
    """The smallest p in primes[lo:hi], a block, that divides g > 1, a
    divisor of the block's product.  A block of one chunk or less is scanned
    prime by prime.  A group takes a gcd per chunk until one shares a factor
    with g (the last chunk needs none), and only that chunk is scanned."""
    if hi - lo > CHUNK_PRIMES:
        while lo + CHUNK_PRIMES < hi and math.gcd(g, chunks[lo // CHUNK_PRIMES]) == 1:
            lo += CHUNK_PRIMES
        hi = min(lo + CHUNK_PRIMES, hi)
    for p in primes[lo:hi]:
        if g % p == 0:
            break
    return p


def _smallest_prime_divisors(ms: list[int], limit: int) -> list[int | None]:
    """For each m of ms, the smallest prime p <= min(limit, TRIAL_BOUND)
    that divides m, or None.

    The one walk of the gcd table, a block at a time for the whole list: one
    map of math.gcd with the block's product over the terms that earlier
    blocks left, so the interpreter's cost is per block, not per term.  A
    term that shares a factor with a block leaves the walk with the block's
    smallest prime dividing it; terms with the same gcd share one scan.
    """
    primes, chunks, blocks = _gcd_table(TRIAL_BOUND)
    found: list[int | None] = [None] * len(ms)
    left, xs = range(len(ms)), ms
    smallest: dict[int, int] = {}  # gcd with a block -> its smallest prime
    for lo, hi, product in blocks:
        if not xs or primes[lo] > limit:
            break
        gs = list(map(math.gcd, xs, repeat(product)))
        ones = gs.count(1)
        if ones < len(gs):
            for i, g in compress(zip(left, gs), map((1).__ne__, gs)):
                p = smallest.get(g)
                if p is None:
                    p = smallest[g] = _smallest_prime_in_block(g, primes, chunks, lo, hi)
                if p <= limit:
                    found[i] = p
            if not ones:
                break
            keep = list(map((1).__eq__, gs))
            left, xs = list(compress(left, keep)), list(compress(xs, keep))
    return found


def screen(terms: list[int]) -> list[int | None]:
    """Each term's smallest prime <= SCREEN_BOUND, or None (0 gives 2), from
    one walk of the screen's blocks over the whole list.  At or above
    MR_DETERMINISTIC_BOUND that prime is compositeness_witness's Divisor;
    below it a prime term is NotComposite instead."""
    return _smallest_prime_divisors(terms, SCREEN_BOUND)


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
    """Primality test: a lookup in the trial primes up to TRIAL_BOUND.  Above
    it, n is composite when screen finds a prime <= SCREEN_BOUND dividing it
    (a few gcds, no modular exponentiation), else when _mr_witness finds a
    base; that is exact below MR_DETERMINISTIC_BOUND."""
    if n <= TRIAL_BOUND:
        primes = small_primes(TRIAL_BOUND)
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    return screen([n])[0] is None and _mr_witness(n) is None


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
    u_index, both through make_certificates.  An immutable, hashable tuple
    record, like covering.Rule, so that it costs no more than a tuple;
    `_replace` gives an edited copy.
    """

    index: int
    term: int
    witness: Witness


def make_certificates(
    indices: Iterable[int], terms: Iterable[int], witnesses: Iterable[Witness]
) -> tuple[CompositenessCertificate, ...]:
    """One CompositenessCertificate per (index, term, witness), in order.
    Each is made by tuple.__new__ from C: the NamedTuple's own __new__ is
    Python code, one interpreter frame per record."""
    return tuple(map(tuple.__new__, repeat(CompositenessCertificate), zip(indices, terms, witnesses)))


def compositeness_witness(n: int, neighbour: int = 0) -> Witness:
    """Produce a checkable witness that |n| is composite, or NotComposite.

    The one statement of the certificate order, in two steps.  First 0 and
    +-1 get NotComposite, and so does a prime below MR_DETERMINISTIC_BOUND,
    where is_prime is exact and cheap; else Divisor(p) for the smallest prime
    p <= SCREEN_BOUND dividing |n|, the one `screen` finds.  Then
    witness_past_screen(|n|, neighbour) certifies what the screen leaves.
    `verifier.verify` screens its terms at or above MR_DETERMINISTIC_BOUND
    in bulk and sends each one the screen leaves to witness_past_screen.
    Below MR_DETERMINISTIC_BOUND only a composite gets past is_prime, and
    its smallest prime is at most isqrt|n|, so neither step needs that bound.
    """
    m = abs(n)
    if m in (0, 1) or (m < MR_DETERMINISTIC_BOUND and is_prime(m)):
        return NotComposite()
    p = screen([m])[0]
    return witness_past_screen(m, neighbour) if p is None else Divisor(p)


def witness_past_screen(m: int, neighbour: int) -> Witness:
    """compositeness_witness's second step, for m > 1 that no prime <=
    SCREEN_BOUND divides and that is composite or at least
    MR_DETERMINISTIC_BOUND: Divisor(g) for g = gcd(m, neighbour) when
    1 < g < m; else Divisor(p) for the smallest prime p <= TRIAL_BOUND
    dividing m; else the first base _mr_witness finds, or NotComposite when
    there is none.

    A recurrence term x_n passes x_{n-2} as neighbour: x_n = b*x_{n-2}
    (mod a), so a prime of a dividing x_{n-2} divides x_n, and the gcd saves
    the walk past the screen.  A neighbour of 0 never gives a proper
    divisor, since gcd(m, 0) = m.
    """
    g = math.gcd(m, neighbour)
    if 1 < g < m:
        return Divisor(g)
    p = _smallest_prime_divisors([m], TRIAL_BOUND)[0]
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
    """Brent's variant of Pollard rho on odd n: a nontrivial factor or None."""
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


def prime_factors(n: int, split: bool = True) -> Iterator[tuple[int, int]]:
    """Yield (p, e) with p**e exactly dividing |n| for every prime p of |n|,
    p ascending: first the primes <= TRIAL_BOUND, then the Pollard-Brent
    split of the cofactor they leave, sorted.

    Each trial prime is the smallest prime divisor of the current cofactor m
    up to isqrt(m), from _smallest_prime_divisors; the walk stops when there
    is none.  The m it leaves has no prime factor up to min(isqrt(m), the
    last trial prime), so every piece of m below the square of the last
    trial prime is prime without a test.  Runs lazily: a caller that
    stops inside the trial primes never starts Pollard-Brent.  Raises
    EffortExceeded when a composite cofactor resists splitting within
    RHO_EFFORT, or, with split false, before Pollard-Brent would start.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    while (p := _smallest_prime_divisors([m], math.isqrt(m))[0]) is not None:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        yield p, e
    last = small_primes(TRIAL_BOUND)[-1]
    counts: dict[int, int] = {}
    rng = random.Random(0xFAC70)
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < last**2 or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng) if split else None
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
