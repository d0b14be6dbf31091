"""Independent re-check of compseq outputs.

Everything here uses this file's own arithmetic, never compseq's: the
recurrence is recomputed from (a, b, x0, x1), every divisor is re-divided
and every Miller-Rabin base is re-run through the strong test below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The first 13 primes decide primality for every n below this bound
# (Sorenson and Webster, 2015).
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class Cert(NamedTuple):
    """One per-term certificate, as the program reported it."""

    n: int
    term: int | None
    kind: str
    value: int | None


def strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin strong test of odd n > 3 to the given base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n below DETERMINISTIC_BOUND."""
    if n >= DETERMINISTIC_BOUND:
        raise ValueError("n is above the deterministic bound")
    if n < 2:
        return False
    for p in DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, p) for p in DETERMINISTIC_BASES)


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def sequence(a: int, b: int, x0: int, x1: int, horizon: int) -> list[int]:
    """[x_0, ..., x_horizon] of x_{n+1} = a*x_n + b*x_{n-1}."""
    xs = [x0, x1]
    while len(xs) <= horizon:
        xs.append(a * xs[-1] + b * xs[-2])
    return xs[: horizon + 1]


def first_index_with_bits(a: int, b: int, x0: int, x1: int, bits: int, cap: int) -> int:
    """Smallest n <= cap with |x_n| of at least `bits` bits (cap if none)."""
    prev, cur = x0, x1
    if abs(prev).bit_length() >= bits:
        return 0
    for n in range(1, cap + 1):
        if abs(cur).bit_length() >= bits:
            return n
        prev, cur = cur, a * cur + b * prev
    return cap


def _witness_ok(m: int, kind: str, value: int | None) -> bool:
    if value is None:
        return False
    if kind == "divisor":
        return 1 < value < m and m % value == 0
    if kind == "mr_base":
        return m % 2 == 1 and m > 3 and 1 < value < m - 1 and not strong_probable_prime(m, value)
    return False


def check_certificates(
    a: int, b: int, x0: int, x1: int, horizon: int, certs: list[Cert]
) -> list[str]:
    """Problems found in the seeds and certificates; empty when all re-check."""
    problems = []
    if x0 <= 0 or x1 <= 0:
        problems.append(f"seed ({x0}, {x1}) not positive")
    if math.gcd(x0, x1) != 1:
        problems.append(f"gcd({x0}, {x1}) = {math.gcd(x0, x1)}")
    if [c.n for c in certs] != list(range(horizon + 1)):
        problems.append(f"certificates do not cover indices 0..{horizon}")
        return problems
    for c, x in zip(certs, sequence(a, b, x0, x1, horizon)):
        if c.term is not None and c.term != x:
            problems.append(f"reported x_{c.n} differs from the recurrence")
        elif not _witness_ok(abs(x), c.kind, c.value):
            problems.append(f"{c.kind} {c.value} does not prove |x_{c.n}| composite")
    return problems


def certs_from_report(report) -> list[Cert]:
    """Certificates of a compseq VerificationReport object."""
    out = []
    for cert in report.certificates:
        w = cert.witness
        out.append(Cert(cert.index, cert.term, w.kind, getattr(w, "d", getattr(w, "base", None))))
    return out


def certs_from_json(report: dict) -> list[Cert]:
    """Certificates of a report as the CLI serialises it."""
    return [
        Cert(c["n"], int(c["term"]), c["witness_kind"], c["witness_value"])
        for c in report["certificates"]
    ]
