"""Second-order linear recurrences x_{n+1} = a*x_n + b*x_{n-1}.

Exact arbitrary-precision term generation, and the same walk on Decimal
values for decimal output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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
    """Stream x0, x1, x2, ... indefinitely.

    The one walk of the recurrence: the seeds may be ints or Decimals (see
    decimal_texts).  The step is picked once: b = +-1 adds or subtracts
    x_{n-1}, which saves a full-length product.
    """
    a, b = params.a, params.b
    x, y = seed.x0, seed.x1
    yield x
    if b == 1:
        while True:
            yield y
            x, y = y, a * y + x
    elif b == -1:
        while True:
            yield y
            x, y = y, a * y - x
    while True:
        yield y
        x, y = y, a * y + b * x


def terms(params: RecurrenceParams, seed: SeedPair, n: int) -> list[int]:
    """The list [x0, ..., xn] (length n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(islice(iter_terms(params, seed), n + 1))


def decimal_texts(params: RecurrenceParams, seed: SeedPair, n: int) -> list[str]:
    """The decimal texts of [x0, ..., xn], equal to [str(x) for x in terms(...)].

    str(int) takes time quadratic in the number of digits; here iter_terms
    runs on Decimal seeds, whose digits are already base 10, so each term
    costs time linear in its length.  Not bound by Python's int-to-str digit
    limit.
    """
    # Imported here, not at the top: the import adds about 2 ms to the start
    # of every process, and only outputs with certificates need it.
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
    with decimal.localcontext(exact):
        seed = SeedPair(decimal.Decimal(seed.x0), decimal.Decimal(seed.x1))
        # Decimal keeps the sign of zero; x_n = 0 prints as "0".
        return [str(x) if x else "0" for x in islice(iter_terms(params, seed), n + 1)]
