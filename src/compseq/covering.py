"""Covering systems of congruences and covering triples.

A triple (p, m, r) couples a residue class r (mod m) with a prime p
dividing the Lucas term u_m of the ambient recurrence.  A set of triples
with distinct primes whose classes cover the integers yields composite-only
seeds downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .arith import EffortExceeded, factorize, is_prime
from .lucas import LucasContext
from .recurrence import RecurrenceParams

DEFAULT_MODULI_MENU = (2, 3, 4, 6, 8, 12, 24)


class Rule(NamedTuple):
    """d is a proper divisor of |x_n| for n = start, start + step, ...

    step = 0 means n = start only.  A covering triple (p, m, r) is Rule(p, r, m).
    """

    d: int
    start: int
    step: int


@dataclass(frozen=True)
class CoveringTriple:
    p: int
    m: int
    r: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.r < self.m:
            raise ValueError("residue must satisfy 0 <= r < m")


@dataclass(frozen=True)
class TripleSet:
    triples: tuple[CoveringTriple, ...]
    params: RecurrenceParams

    @staticmethod
    def of(triples, a: int, b: int) -> "TripleSet":
        return TripleSet(tuple(CoveringTriple(*t) for t in triples), RecurrenceParams(a, b))

    def primes(self) -> tuple[int, ...]:
        return tuple(t.p for t in self.triples)

    def classes(self) -> tuple[tuple[int, int], ...]:
        return tuple((t.m, t.r) for t in self.triples)

    def rules(self) -> tuple[Rule, ...]:
        return tuple(Rule(t.p, t.r, t.m) for t in self.triples)


class CoveringCheck(NamedTuple):
    covered: bool
    first_uncovered: int | None


def is_covering(classes: Sequence[tuple[int, int]]) -> CoveringCheck:
    """Exact covering check over one full period lcm(m_i)."""
    if not classes:
        return CoveringCheck(False, 0)
    period = math.lcm(*(m for m, _ in classes))
    for j in range(period):
        if not any(j % m == r % m for m, r in classes):
            return CoveringCheck(False, j)
    return CoveringCheck(True, None)


@dataclass(frozen=True)
class TripleValidation:
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)


def validate_triples(tset: TripleSet) -> TripleValidation:
    """Check the three triple-set conditions against the ambient (a, b).

    (i) distinct primes, (ii) the classes cover the integers,
    (iii) each p divides the Lucas term u_m.
    """
    failures = []
    primes = tset.primes()
    if len(set(primes)) != len(primes):
        failures.append(f"primes not distinct: {primes}")
    for t in tset.triples:
        if not is_prime(t.p):
            failures.append(f"{t.p} is not prime in {t}")
    check = is_covering(tset.classes())
    if not check.covered:
        failures.append(f"classes do not cover: {check.first_uncovered} is missed")
    ctx = LucasContext(tset.params)
    for t in tset.triples:
        if ctx.u(t.m) % t.p != 0:
            failures.append(f"{t.p} does not divide u_{t.m} = {ctx.u(t.m)} in {t}")
    return TripleValidation(not failures, tuple(failures))


# Candidate class templates assembled from the default menu, smallest first.
# Each is itself a covering system (asserted by the test suite).
_TEMPLATES: tuple[tuple[tuple[int, int], ...], ...] = (
    ((2, 0), (2, 1)),
    ((2, 0), (4, 1), (4, 3)),
    ((2, 0), (6, 1), (6, 3), (6, 5)),
    ((2, 0), (4, 1), (8, 3), (8, 7)),
    ((2, 0), (3, 0), (4, 1), (6, 5), (12, 7)),
    ((2, 0), (3, 0), (4, 3), (8, 5), (12, 5), (24, 1)),
)


def search_triples(
    params: RecurrenceParams,
    moduli_menu: Sequence[int] = DEFAULT_MODULI_MENU,
    effort: int = 10**6,
) -> TripleSet | None:
    """Deterministic search for a valid triple set with |b| = 1, |a| >= 2.

    Walks the class templates drawn from the menu in order; for each,
    assigns distinct primes (ascending, from the factorizations of the
    relevant u_m) to the classes, backtracking as needed.  Returns the
    first set passing validate_triples, or None.
    """
    if abs(params.b) != 1 or abs(params.a) < 2:
        raise ValueError("requires |b| = 1 and |a| >= 2")
    ctx = LucasContext(params)
    menu = set(moduli_menu)
    prime_pool: dict[int, tuple[int, ...]] = {}

    def primes_of_u(m: int) -> tuple[int, ...]:
        if m not in prime_pool:
            um = ctx.u(m)
            if abs(um) <= 1:
                prime_pool[m] = ()
            else:
                try:
                    prime_pool[m] = factorize(um, effort=effort).primes()
                except EffortExceeded:
                    prime_pool[m] = ()
        return prime_pool[m]

    for template in _TEMPLATES:
        if not all(m in menu for m, _ in template):
            continue
        assignment: list[int] = []

        def assign(i: int) -> bool:
            if i == len(template):
                return True
            m, _ = template[i]
            for p in primes_of_u(m):
                if p in assignment:
                    continue
                assignment.append(p)
                if assign(i + 1):
                    return True
                assignment.pop()
            return False

        if assign(0):
            tset = TripleSet.of(
                [(p, m, r) for p, (m, r) in zip(assignment, template)],
                params.a,
                params.b,
            )
            if validate_triples(tset).ok:
                return tset
    return None
