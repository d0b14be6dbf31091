"""Construction of coprime positive seeds making every |x_n| composite.

Dispatches on (a, b): special cases a = 0 and a^2 + 4b = 0, polynomial
seeds for |b| >= 2, and covering-system/CRT seeds for |b| = 1, with the
known record pair for (1, 1) and its reflection for (-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .arith import coprime_shift, crt_solve, factorize, is_prime, prime_factors
from .covering import Rule, validate_triples
from .lucas import LucasContext
from .recurrence import RecurrenceParams, SeedPair

# Strategy tags.
A_ZERO = "AZero"
DEGENERATE_DISC = "DegenerateDisc"
CASE_I = "CaseI"
CASE_II = "CaseII"
CASE_IIIA = "CaseIIIa"
CASE_IIIB = "CaseIIIb"
CASE_IIIC = "CaseIIIc"
TWO_PRIME_FACTORS = "TwoPrimeFactors"
COVERING_CRT = "CoveringCRT"
TABLE1_STRATEGY = "Table1"
PERIODIC3 = "Periodic3"
PERIODIC6 = "Periodic6"
VSEMIRNOV = "Vsemirnov"
VSEMIRNOV_REFLECTED = "VsemirnovReflected"

# Record starting pair for a = b = 1 (Vsemirnov).
VSEMIRNOV_PAIR = (106276436867, 35256392432)


class NotConstructible(ValueError):
    """No composite-only seed exists: b = 0 or (a, b) = (+-2, -1)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Support:
    """CRT audit trail of a covering construction: P is the product of the
    covering primes, and x0 = y, x1 = z (mod P)."""

    P: int
    y: int
    z: int


@dataclass(frozen=True)
class ConstructionResult:
    """Seeds plus the divisor rules that make each |x_n| composite.

    Every strategy but the Vsemirnov pair and its reflection states its rules;
    for a covering construction they are its triples (p, m, r) as Rule(p, r, m),
    and `support` holds the CRT values.
    """

    params: RecurrenceParams
    seed: SeedPair
    strategy: str
    rules: tuple[Rule, ...] = ()
    support: Support | None = None


# Covering triples (p, m, r) of Table 1 as Rule(p, r, m); rows (a, b) and
# (-a, b) share them.
_T5 = (Rule(5, 0, 2), Rule(2, 1, 6), Rule(7, 3, 6), Rule(13, 5, 6))
_T4 = (Rule(2, 0, 2), Rule(3, 1, 4), Rule(7, 3, 8), Rule(23, 7, 8))
_T3 = (Rule(3, 0, 2), Rule(11, 1, 4), Rule(7, 3, 8), Rule(17, 7, 8))
_T2 = (Rule(2, 0, 2), Rule(5, 0, 3), Rule(3, 1, 4), Rule(7, 5, 6), Rule(11, 7, 12))
_T3M = (
    Rule(3, 0, 2), Rule(2, 0, 3), Rule(7, 3, 4), Rule(47, 5, 8), Rule(23, 5, 12), Rule(1103, 1, 24)
)

# (a, b) -> (rules, paper x0, paper x1).  The (3, -1) row's paper pair has
# x0 > x1, contradicting the ordering the growth argument needs; audit_table1
# records the anomaly.
TABLE1: dict[tuple[int, int], tuple[tuple[Rule, ...], int, int]] = {
    (5, 1): (_T5, 495, 1136),
    (-5, 1): (_T5, 495, 866),
    (4, 1): (_T4, 116, 165),
    (-4, 1): (_T4, 116, 801),
    (3, 1): (_T3, 1803, 3454),
    (-3, 1): (_T3, 1803, 3091),
    (2, 1): (_T2, 260, 807),
    (-2, 1): (_T2, 260, 1503),
    (3, -1): (_T3M, 7373556, 2006357),
    (-3, -1): (_T3M, 7373556, 14686445),
}


def closed_form_degenerate(c: int, n: int) -> int:
    """x_n for the repeated-root case a = 2c, b = -c^2 with seeds (4c^2-1, 2c^3).

    Valid for n >= 3; never 0.  Used as an oracle against term generation.
    """
    return c**n * ((n - 1) - (2 * n - 4) * c * c)


def square_gap_holds(a: int, b: int) -> bool:
    """The strict sandwich pinning 16b^8+8ab^5-8b^4-4b^3-2ab+1 between squares.

    Holds whenever 1 <= |a| <= |b| and |b| >= 2; rules out zero terms for the
    (4b^4-1, 2b^2) seeds.
    """
    mid = 16 * b**8 + 8 * a * b**5 - 8 * b**4 - 4 * b**3 - 2 * a * b + 1
    lo = (4 * b**4 + a * b - 2) ** 2
    hi = (4 * b**4 + a * b) ** 2
    return lo < mid < hi


def _smallest_primes(n: int, k: int, exclude: tuple[int, ...] = ()) -> list[int]:
    """The k smallest primes of |n| not in `exclude`, read lazily from
    prime_factors; fewer when there are not k of them."""
    return list(islice((p for p, _ in prime_factors(n) if p not in exclude), k))


def pick_primes_bminus1(a: int, p1: int) -> tuple[Rule, ...]:
    """Covering rules (p1, 0, 2), (p2, 1, 6), (p3, 3, 6), (p4, 5, 6) for
    b = -1, |a| = p1^s >= 4.

    p1 divides u_2 = a; the others divide u_6 = a(a^2-1)(a^2-3): p4 from
    a^2-3 (not 3, not p1), p2 < p3 the two smallest primes of a^2-1 not yet
    used.  Backtracks to the next admissible p4 when the greedy choice
    starves a^2-1 of two primes.  Each prime is the smallest admissible one,
    so trial division usually finds them all and Pollard-Brent never runs.
    """
    if abs(a) < 4:
        raise ValueError("requires |a| = p^s >= 4")
    for p4 in (p for p, _ in prime_factors(a * a - 3) if p not in (3, p1)):
        rest = _smallest_primes(a * a - 1, 2, (p1, p4))
        if len(rest) == 2:
            return Rule(p1, 0, 2), Rule(rest[0], 1, 6), Rule(rest[1], 3, 6), Rule(p4, 5, 6)
    raise ValueError(f"no admissible prime selection for a={a}")  # pragma: no cover


def pick_primes_bplus1(a: int, p1: int) -> tuple[Rule, ...]:
    """Covering rules for b = 1, |a| = p1^s >= 6.

    p1 != 3: (p1, 0, 2), (3, 1, 4), (p3, 3, 4) with p3 dividing a^2+2.
    p1 == 3: (3, 0, 2), (2, 1, 6), (p3, 3, 6), (p4, 5, 6) with p3 from the
    odd part of a^2+1 and p4 from (a^2+3)/12.  Each prime is the smallest
    admissible one, as in pick_primes_bminus1.
    """
    if abs(a) < 6:
        raise ValueError("requires |a| = p^s >= 6")
    if p1 != 3:
        p3 = _smallest_primes(a * a + 2, 1, (3, p1))[0]
        return Rule(p1, 0, 2), Rule(3, 1, 4), Rule(p3, 3, 4)
    p3 = _smallest_primes((a * a + 1) // 2, 1)[0]
    p4 = _smallest_primes((a * a + 3) // 12, 1, (3, 2, p3))[0]
    return Rule(3, 0, 2), Rule(2, 1, 6), Rule(p3, 3, 6), Rule(p4, 5, 6)


def derive_seed_from_triples(
    params: RecurrenceParams, rules: tuple[Rule, ...]
) -> tuple[SeedPair, int, int, int]:
    """Seeds from valid covering triples Rule(p, r, m) via CRT on
    y = u_{m-r}, z = u_{m-r+1} (mod p).

    x0 is y (or y + P when y is too small to dominate the covering primes);
    x1 is z + k*P for the least k making the pair coprime with x1 > x0.
    Returns (seed, P, y, z) for audit.
    """
    ctx = LucasContext(params)
    y, P = crt_solve([(ctx.u(m - r) % p, p) for p, r, m in rules])
    z, _ = crt_solve([(ctx.u(m - r + 1) % p, p) for p, r, m in rules])
    x0 = y if (y > max(p for p, _, _ in rules) and y >= 2) else y + P
    k = coprime_shift(x0, z, P)
    x1 = z + k * P
    return SeedPair(x0, x1), P, y, z


def construct(a: int, b: int) -> ConstructionResult:
    """Produce coprime positive seeds with every |x_n| composite, plus the
    strategy and its divisor rules.

    Raises NotConstructible for b = 0 and (a, b) = (+-2, -1), where no such
    seeds exist.
    """
    params = RecurrenceParams(a, b)

    def result(x0, x1, strategy, *rules):
        return ConstructionResult(
            params, SeedPair(x0, x1), strategy, tuple(Rule(*r) for r in rules)
        )

    def covering_result(rules, strategy):
        assert not validate_triples(params, rules), f"invalid triple set for ({a}, {b})"
        seed, P, y, z = derive_seed_from_triples(params, rules)
        return ConstructionResult(params, seed, strategy, rules, Support(P, y, z))

    if b == 0:
        raise NotConstructible("BZero")
    if b == -1 and abs(a) == 2:
        raise NotConstructible("ExcludedPair")

    if a == 0:
        return result(4, 9, A_ZERO, (2, 0, 2), (3, 1, 2))

    if a * a + 4 * b == 0 and abs(b) >= 2:
        # a = 2c, b = -c^2; for a < 0 reflect x1 so both seeds stay positive
        # (the reflected sequence has the same |x_n|).
        c = abs(a) // 2
        spf = _smallest_primes(c, 1)[0]
        return result(
            4 * c * c - 1, 2 * c**3, DEGENERATE_DISC, (2 * c - 1, 0, 0), (spf, 1, 1)
        )

    if abs(b) >= 2:
        # x_n for n >= 1 is a multiple of b, hence of its smallest prime.
        tail = (_smallest_primes(b, 1)[0], 1, 1)
        if abs(a) > abs(b):
            return result(b**4 - 1, b**4, CASE_I, (b * b - 1, 0, 0), tail)
        if not is_prime(abs(b)):
            return result(4 * b**4 - 1, 2 * b * b, CASE_II, (2 * b * b - 1, 0, 0), tail)
        if abs(a) == abs(b):
            return result(4 * b**4 - 1, 2 * b * b, CASE_IIIB, (2 * b * b - 1, 0, 0), tail)
        # 1 <= |a| < |b|, |b| prime.  The paper gives x1 for each sign of a
        # and of b; one formula covers all four.
        x1 = abs(b) * b * b - a * abs(a) * b
        if abs(a) == 1:
            return result((2 * b * b - 1) ** 2, x1, CASE_IIIA, (2 * b * b - 1, 0, 0), tail)
        return result(abs(a) ** 3, x1, CASE_IIIC, (abs(a), 0, 0), tail)

    # |b| = 1 from here on.  |a| is factorized once: two primes make
    # TwoPrimeFactors, and one alone is the p of |a| = p^s the pickers need.
    base = None
    if abs(a) >= 2:
        primes = factorize(a).primes()
        if len(primes) >= 2:
            p1, p2 = primes[:2]
            return result(p1 * p1, p2 * p2, TWO_PRIME_FACTORS, (p1, 0, 2), (p2, 1, 2))
        base = primes[0]

    if (a, b) in TABLE1:
        return covering_result(TABLE1[(a, b)][0], TABLE1_STRATEGY)

    if b == -1 and abs(a) >= 4:
        return covering_result(pick_primes_bminus1(a, base), COVERING_CRT)
    if b == 1 and abs(a) >= 6:
        return covering_result(pick_primes_bplus1(a, base), COVERING_CRT)

    if (a, b) == (-1, -1):
        return result(8, 27, PERIODIC3, (2, 0, 3), (3, 1, 3), (5, 2, 3))
    if (a, b) == (1, -1):
        return result(8, 35, PERIODIC6, (2, 0, 3), (5, 1, 3), (3, 2, 3))
    if (a, b) == (1, 1):
        return result(*VSEMIRNOV_PAIR, VSEMIRNOV)
    if (a, b) == (-1, 1):
        v0, v1 = VSEMIRNOV_PAIR
        return result(v0 - v1, v0, VSEMIRNOV_REFLECTED)

    raise AssertionError(f"dispatch gap for ({a}, {b})")  # pragma: no cover
