"""Closed forms and identities from the paper, and reference versions of
library code, that the tests check the library against; nothing in compseq
calls them."""

import math
from itertools import product

import sympy

from compseq.arith import TRIAL_BOUND, Divisor, EffortExceeded, MillerRabinBase, NotComposite, factorize, int_text
from compseq.covering import _TEMPLATES, Rule, validate_triples
from compseq.lucas import LucasContext
from compseq.recurrence import RecurrenceParams, SeedPair, terms


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


def is_square(n: int) -> bool:
    """True iff n is the square of an integer."""
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_strictly_growing(params: RecurrenceParams, seed: SeedPair, horizon: int) -> bool:
    """True iff |x_n| < |x_{n+1}| for every n < horizon (Lemma 2 for |a| > |b|
    with |x0| < |x1|)."""
    xs = terms(params, seed, horizon)
    return all(abs(xs[i]) < abs(xs[i + 1]) for i in range(horizon))


def reference_terms(params: RecurrenceParams, seed: SeedPair, n: int) -> list[int]:
    """[x0, ..., xn] by the plain loop x, y = y, a*y + b*x, which shares no
    code with recurrence.iter_terms and its b = +-1 steps."""
    a, b = params.a, params.b
    x, y = seed.x0, seed.x1
    xs = []
    for _ in range(n + 1):
        xs.append(x)
        x, y = y, a * y + b * x
    return xs


def lemma1_residual(params: RecurrenceParams, seed: SeedPair, n: int) -> int:
    """x_{n+1}^2 - a*x_n*x_{n+1} - b*x_n^2 minus (-b)^n*(x1^2 - a*x0*x1 - b*x0^2).

    Always 0; exposed as a residual so tests can quantify over inputs.
    """
    a, b = params.a, params.b
    xs = terms(params, seed, n + 1)
    xn, xn1 = xs[n], xs[n + 1]
    lhs = xn1 * xn1 - a * xn * xn1 - b * xn * xn
    x0, x1 = seed.x0, seed.x1
    rhs = (-b) ** n * (x1 * x1 - a * x0 * x1 - b * x0 * x0)
    return lhs - rhs


def check_divisibility(ctx: LucasContext, m: int, n: int) -> bool:
    """True iff u_m | u_n (when u_m = 0, true iff u_n = 0 as well)."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    um, un = ctx.u(m), ctx.u(n)
    if um == 0:
        return un == 0
    return un % um == 0


def rank_of_apparition(ctx: LucasContext, p: int) -> int:
    """Smallest m >= 1 with p | u_m, for a prime p that does not divide b.

    The rank divides p - (D/p), or is p when p | D, with D = a^2 + 4b the
    discriminant; so m <= p + 1 always.
    """
    us = terms(ctx.params, SeedPair(0, 1), p + 1)
    return next(m for m in range(1, p + 2) if us[m] % p == 0)


def reference_rule_audit(xs: list[int], rules) -> tuple[list[str], list, bytearray]:
    """The divisor-rule audit term by term, as verifier.verify made it before
    it audited a rule from two terms: one abs and one % per claimed term.

    Returns the failure texts in order (without the unclaimed indices), the
    Divisor witness of each term (the first rule that properly divides it,
    else None) and which indices some rule claims."""
    size = len(xs)
    failures: list[str] = []
    witnesses: list = [None] * size
    claimed = bytearray(size)
    for rule in rules:
        d, start, step = rule
        if start < 0 or step < 0:
            failures.append(f"{rule} needs start >= 0 and step >= 0")
            continue
        for n in range(start, size, step or size):
            claimed[n] = 1
            t = abs(xs[n])
            if not (1 < d < t and t % d == 0):
                failures.append(f"claimed {int_text(d)} is not a proper divisor of x_{n}")
            elif witnesses[n] is None:
                witnesses[n] = Divisor(d)
    return failures, witnesses, claimed


def reference_discover_rules(xs: list[int]) -> tuple[Rule, ...]:
    """covering.discover_rules by its definition: the first L with no prime
    factor above 7 and 2L <= len(xs) whose every gcd(x_s, x_{s+L}), s < L,
    exceeds 1, all L of them computed; then, for the divisors m of L in
    increasing order, a rule for each class s (mod m) with
    gcd(x_s, x_{s+m}) > 1 that still holds an unclaimed class mod L."""
    for L in range(1, len(xs) // 2 + 1):
        if max(sympy.primefactors(L), default=1) > 7:
            continue
        if all(math.gcd(xs[s], xs[s + L]) > 1 for s in range(L)):
            rules, unclaimed = [], set(range(L))
            for m in sympy.divisors(L):
                for s in range(m):
                    if unclaimed & set(range(s, L, m)) and math.gcd(xs[s], xs[s + m]) > 1:
                        rules.append(Rule(math.gcd(xs[s], xs[s + m]), s, m))
                        unclaimed -= set(range(s, L, m))
            return tuple(rules)
    return ()


def certificate_holds(term: int, witness) -> bool:
    """True iff the witness proves what it claims about |term|, checked
    with sympy and a strong test written here: a Divisor properly divides
    it, a Miller-Rabin base proves it composite, and NotComposite means it
    is 0, 1 or prime."""
    n = abs(term)
    if isinstance(witness, Divisor):
        return 1 < witness.d < n and n % witness.d == 0
    if isinstance(witness, NotComposite):
        return n < 2 or sympy.isprime(n)
    assert isinstance(witness, MillerRabinBase)
    if n < 5 or n % 2 == 0 or witness.base % n == 0:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(witness.base, d, n)
    liar = x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))
    return not liar and not sympy.isprime(n)


def eager_search_triples(params: RecurrenceParams) -> tuple[Rule, ...] | None:
    """covering.search_triples with a complete factorization of every u_m it
    touches: an EffortExceeded empties that u_m's candidates.  The first
    pass takes the primes of u_m up to TRIAL_BOUND, and the one larger prime
    only when it is the whole cofactor they leave (prime_factors finds no
    other without Pollard-Brent); the second pass takes every prime.
    Wherever no u_m resists, the lazy search must return the same rules."""
    if abs(params.b) != 1 or abs(params.a) < 2:
        raise ValueError("requires |b| = 1 and |a| >= 2")
    ctx = LucasContext(params)
    prime_pool: dict[tuple[int, bool], tuple[int, ...]] = {}

    def primes_of_u(m: int, split: bool) -> tuple[int, ...]:
        if (m, split) not in prime_pool:
            try:
                factors = factorize(ctx.u(m)).factors
            except EffortExceeded:
                factors = ()
            large = [(p, e) for p, e in factors if p > TRIAL_BOUND]
            if not split and large and (len(large) > 1 or large[0][1] > 1):
                factors = factors[: -len(large)]
            prime_pool[m, split] = tuple(p for p, _ in factors)
        return prime_pool[m, split]

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
