"""Lucas sequences of the first kind: u0 = 0, u1 = 1, u_{n+1} = a*u_n + b*u_{n-1}.

Terms walked from (0, 1), and two scanners: compositeness of |u_n| for
b = -1, |a| >= 3, one CompositenessCertificate per term, and pairwise
coprimality of u_p, u_q at prime indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .arith import CompositenessCertificate, NotComposite, compositeness_witness, make_certificates, small_primes
from .arith import is_prime  # noqa: F401  unused; bench/test_bench.py expects tracing to patch it here
from .recurrence import RecurrenceParams, SeedPair, iter_terms, terms

LUCAS_SEED = SeedPair(0, 1)


class LucasContext:
    """u_n for one (a, b); u() walks from (0, 1) on each call, keeps no terms, is pure."""

    def __init__(self, params: RecurrenceParams):
        if params.b == 0:
            raise ValueError("b must be nonzero")
        self.params = params

    def u(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        return next(islice(iter_terms(self.params, LUCAS_SEED), n, None))


@dataclass(frozen=True)
class CompositeScanReport:
    a: int
    n_max: int
    entries: tuple[CompositenessCertificate, ...] = ()

    @property
    def violations(self) -> tuple[CompositenessCertificate, ...]:
        return tuple(e for e in self.entries if isinstance(e.witness, NotComposite))


def composite_scan(a: int, n_max: int) -> CompositeScanReport:
    """Certify |u_n| composite for 3 <= n <= n_max with b = -1, |a| >= 3."""
    if abs(a) < 3:
        raise ValueError("requires |a| >= 3")
    us = terms(RecurrenceParams(a, -1), LUCAS_SEED, max(n_max, 0))[3:]
    witnesses = map(compositeness_witness, us)
    entries = make_certificates(range(3, n_max + 1), us, witnesses)
    return CompositeScanReport(a, n_max, entries)


@dataclass(frozen=True)
class CoprimalityViolation:
    a: int
    p: int
    q: int
    gcd: int


def conjecture_scan(a_values, prime_bound: int) -> list[CoprimalityViolation]:
    """gcd(u_p, u_q) for all prime pairs p < q <= prime_bound, b = -1.

    Returns the (expected-empty) list of pairs with gcd > 1.
    """
    primes = small_primes(prime_bound)
    violations = []
    for a in a_values:
        if abs(a) < 3:
            raise ValueError("requires |a| >= 3")
        us = terms(RecurrenceParams(a, -1), LUCAS_SEED, prime_bound)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                g = math.gcd(us[p], us[q])
                if g > 1:
                    violations.append(CoprimalityViolation(a, p, q, g))
    return violations
