"""Lucas sequences of the first kind: u0 = 0, u1 = 1, u_{n+1} = a*u_n + b*u_{n-1}.

Cached terms, rank of apparition, and two scanners: compositeness of |u_n|
for b = -1, |a| >= 3, one CompositenessCertificate per term, and pairwise
coprimality of u_p, u_q at prime indices.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .arith import (
    CompositenessCertificate, NotComposite, compositeness_witness, is_prime, small_primes
)
from .recurrence import RecurrenceParams


class LucasContext:
    """Caches u_n values for one (a, b); u() is observably pure and thread-safe."""

    def __init__(self, params: RecurrenceParams):
        if params.b == 0:
            raise ValueError("b must be nonzero")
        self.params = params
        self._cache = [0, 1]
        self._lock = threading.Lock()

    def u(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n >= len(self._cache):
            with self._lock:
                a, b = self.params.a, self.params.b
                while len(self._cache) <= n:
                    self._cache.append(a * self._cache[-1] + b * self._cache[-2])
        return self._cache[n]


def rank_of_apparition(ctx: LucasContext, p: int) -> int:
    """Smallest m >= 1 with p | u_m.

    For p not dividing b the rank divides p - (D/p), or is p when p | D,
    with D = a^2 + 4b the discriminant; so m <= p + 1 always.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(p, ctx.params.b) != 1:
        raise ValueError("p must not divide b")
    return next(m for m in range(1, p + 2) if ctx.u(m) % p == 0)


@dataclass(frozen=True)
class CompositeScanReport:
    a: int
    n_max: int
    entries: tuple[CompositenessCertificate, ...] = ()

    @property
    def violations(self) -> tuple[CompositenessCertificate, ...]:
        return tuple(e for e in self.entries if isinstance(e.witness, NotComposite))

    @property
    def all_composite(self) -> bool:
        return not self.violations


def composite_scan(a: int, n_max: int) -> CompositeScanReport:
    """Certify |u_n| composite for 3 <= n <= n_max with b = -1, |a| >= 3."""
    if abs(a) < 3:
        raise ValueError("requires |a| >= 3")
    ctx = LucasContext(RecurrenceParams(a, -1))
    entries = []
    for n in range(3, n_max + 1):
        t = ctx.u(n)
        entries.append(CompositenessCertificate(n, t, compositeness_witness(t)))
    return CompositeScanReport(a, n_max, tuple(entries))


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
    primes = [p for p in small_primes(prime_bound) if p <= prime_bound]
    violations = []
    for a in a_values:
        if abs(a) < 3:
            raise ValueError("requires |a| >= 3")
        ctx = LucasContext(RecurrenceParams(a, -1))
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                g = math.gcd(ctx.u(p), ctx.u(q))
                if g > 1:
                    violations.append(CoprimalityViolation(a, p, q, g))
    return violations
