"""Covering systems of congruences and covering triples.

A triple (p, m, r) couples a residue class r (mod m) with a prime p
dividing the Lucas term u_m of the ambient recurrence; it is written as
the divisor rule Rule(p, r, m).  A set of triples with distinct primes
whose classes cover the integers yields composite-only seeds downstream.
"""

from __future__ import annotations

import math
from contextlib import suppress
from itertools import product, tee
from typing import Iterator, NamedTuple, Sequence

from .arith import EffortExceeded, int_text, is_prime, prime_factors
from .arith import factorize  # noqa: F401  unused; bench/test_bench.py expects tracing to patch it here
from .lucas import LucasContext
from .recurrence import RecurrenceParams


class Rule(NamedTuple):
    """d is a proper divisor of |x_n| for n = start, start + step, ...

    step = 0 means n = start only.  A covering triple (p, m, r) is Rule(p, r, m).
    """

    d: int
    start: int
    step: int

    def __repr__(self) -> str:  # prints past the int-to-str limit, as failure texts must
        return f"Rule(d={int_text(self.d)}, start={int_text(self.start)}, step={int_text(self.step)})"


class CoveringCheck(NamedTuple):
    covered: bool
    first_uncovered: int | None


def is_covering(classes: Sequence[tuple[int, int]]) -> CoveringCheck:
    """Exact covering check over one full period lcm(m_i).

    Raises ValueError for a class with modulus m < 1.
    """
    if any(m < 1 for m, _ in classes):
        raise ValueError("every modulus must be >= 1")
    if not classes:
        return CoveringCheck(False, 0)
    period = math.lcm(*(m for m, _ in classes))
    for j in range(period):
        if not any(j % m == r % m for m, r in classes):
            return CoveringCheck(False, j)
    return CoveringCheck(True, None)


def discover_rules(xs: Sequence[int]) -> tuple[Rule, ...]:
    """Divisor rules read back from the terms xs = x_0..x_N, or () if none.

    By the stride identity (see verifier.verify), g = gcd(x_s, x_{s+m}) > 1
    divides the whole class s (mod m).  Takes the first 7-smooth L with
    2L <= len(xs) at which every gcd(x_s, x_{s+L}) > 1, s < L (seeds with a
    covering whose moduli divide L have one).  For the divisors m of L in
    increasing order, it claims each class s (mod m) that holds a class mod
    L still open and has gcd(x_s, x_{s+m}) > 1; a class mod L closed by a
    smaller m has a gcd > 1 with stride L too, so L is taken when none stays
    open.  A g may be composite or a whole term; the audit in verify decides.
    """
    for L in range(1, len(xs) // 2 + 1):
        # L is 7-smooth iff L | 210^e, each exponent below L.bit_length().  A
        # failing L nearly always fails in its first 64 classes.
        if pow(210, L.bit_length(), L) or any(math.gcd(xs[s], xs[s + L]) < 2 for s in range(min(L, 64))):
            continue
        rules, open_ = [], bytearray([1]) * L
        for m in (m for m in range(1, L + 1) if L % m == 0):
            for s in range(m):
                if 1 in open_[s::m] and (g := math.gcd(xs[s], xs[s + m])) > 1:
                    rules.append(Rule(g, s, m))
                    open_[s::m] = bytes(L // m)
        if 1 not in open_:
            return tuple(rules)
    return ()


def validate_triples(params: RecurrenceParams, rules: Sequence[Rule]) -> tuple[str, ...]:
    """Failures of the covering triples Rule(p, r, m) against (a, b); () when valid.

    Each rule needs m >= 2 and 0 <= r < m; then (i) distinct primes,
    (ii) the classes r (mod m) cover the integers, (iii) each p divides
    the Lucas term u_m.
    """
    failures = [
        f"{t} needs step >= 2 and 0 <= start < step"
        for t in rules
        if t.step < 2 or not 0 <= t.start < t.step
    ]
    if failures:
        return tuple(failures)
    primes = tuple(t.d for t in rules)
    if len(set(primes)) != len(primes):
        failures.append(f"primes not distinct: ({', '.join(map(int_text, primes))})")
    for t in rules:
        if not is_prime(t.d):
            failures.append(f"{int_text(t.d)} is not prime in {t}")
    check = is_covering([(m, r) for _, r, m in rules])
    if not check.covered:
        failures.append(f"classes do not cover: {check.first_uncovered} is missed")
    ctx = LucasContext(params)
    for t in rules:
        if (u := ctx.u(t.step)) % t.d != 0:
            failures.append(f"{int_text(t.d)} does not divide u_{t.step} = {int_text(u)} in {t}")
    return tuple(failures)


# Candidate class templates (m, r), smallest first, with moduli dividing 24.
# Each is itself a covering system (asserted by the test suite).
_TEMPLATES: tuple[tuple[tuple[int, int], ...], ...] = (
    ((2, 0), (2, 1)),
    ((2, 0), (4, 1), (4, 3)),
    ((2, 0), (6, 1), (6, 3), (6, 5)),
    ((2, 0), (4, 1), (8, 3), (8, 7)),
    ((2, 0), (3, 0), (4, 1), (6, 5), (12, 7)),
    ((2, 0), (3, 0), (4, 3), (8, 5), (12, 5), (24, 1)),
)


def search_triples(params: RecurrenceParams) -> tuple[Rule, ...] | None:
    """Deterministic search for valid covering triples with |b| = 1, |a| >= 2.

    Walks the class templates in order; for each, assigns distinct primes
    (ascending, from the prime factors of the relevant u_m) to the classes,
    backtracking as needed.  Returns the first rules passing
    validate_triples, or None.  Two passes: every template first takes only
    the primes prime_factors finds without Pollard-Brent, so no template's
    resisting cofactor holds up a later template, then all of them.  Each
    u_m (|u_m| >= 2, as m >= 2) has one prime_factors stream per pass,
    shared by every template and read only as far as the backtracking asks;
    an EffortExceeded ends its primes at that point.
    """
    if abs(params.b) != 1 or abs(params.a) < 2:
        raise ValueError("requires |b| = 1 and |a| >= 2")
    ctx = LucasContext(params)
    streams: dict[tuple[int, bool], Iterator[tuple[int, int]]] = {}

    def primes_of_u(m: int, split: bool) -> Iterator[int]:
        key = m, split
        streams[key], reader = tee(streams[key] if key in streams else prime_factors(ctx.u(m), split))
        with suppress(EffortExceeded):
            yield from (p for p, _ in reader)

    for split, template in product((False, True), _TEMPLATES):
        assignment: list[int] = []

        def assign(i: int) -> bool:
            if i == len(template):
                return True
            m, _ = template[i]
            for p in primes_of_u(m, split):
                if p in assignment:
                    continue
                assignment.append(p)
                if assign(i + 1):
                    return True
                assignment.pop()
            return False

        if assign(0):
            rules = tuple(Rule(p, r, m) for p, (m, r) in zip(assignment, template))
            if not validate_triples(params, rules):
                return rules
    return None
