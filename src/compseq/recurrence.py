"""Second-order linear recurrences x_{n+1} = a*x_n + b*x_{n-1}.

Exact arbitrary-precision term generation, and the same run in base 10
for decimal output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class RecurrenceParams:
    a: int
    b: int

    @property
    def discriminant(self) -> int:
        return self.a * self.a + 4 * self.b


@dataclass(frozen=True)
class SeedPair:
    x0: int
    x1: int


def iter_terms(params: RecurrenceParams, seed: SeedPair) -> Iterator[int]:
    """Stream x0, x1, x2, ... indefinitely."""
    a, b = params.a, params.b
    x, y = seed.x0, seed.x1
    yield x
    while True:
        yield y
        x, y = y, a * y + b * x


def terms(params: RecurrenceParams, seed: SeedPair, n: int) -> list[int]:
    """The list [x0, ..., xn] (length n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    it = iter_terms(params, seed)
    return [next(it) for _ in range(n + 1)]


def decimal_texts(params: RecurrenceParams, seed: SeedPair, n: int) -> list[str]:
    """The decimal texts of [x0, ..., xn], equal to [str(x) for x in terms(...)].

    str(int) takes time quadratic in the number of digits; here the
    recurrence runs on Decimal values, whose digits are already base 10, so
    each term costs time linear in its length.  That pays once terms pass
    about 2000 bits; below, str() is faster.  Not bound by Python's
    int-to-str digit limit.
    """
    # Imported here, not at the top: the import adds about 2 ms to the start
    # of every process, and only outputs with long terms need it.
    import decimal

    if n < 0:
        raise ValueError("n must be >= 0")
    # Integer arithmetic in base 10 that is exact or raises: any rounding traps.
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
    )
    add, mul, zero = exact.add, exact.multiply, decimal.Decimal(0)
    a, b = decimal.Decimal(params.a), decimal.Decimal(params.b)
    # b = +-1 adds or subtracts x_{n-1}, which saves a full-length product.
    if params.b == 1:
        def step(x, y):
            return add(mul(a, y), x)
    elif params.b == -1:
        def step(x, y):
            return exact.subtract(mul(a, y), x)
    else:
        def step(x, y):
            return add(mul(a, y), mul(b, x))
    x, y = decimal.Decimal(seed.x0), decimal.Decimal(seed.x1)
    texts = [str(x)]
    for _ in range(n):
        texts.append(str(y))
        x, y = y, step(x, y)
        if not y:
            y = zero  # Decimal keeps the sign of zero; x_n = 0 prints as "0"
    return texts

