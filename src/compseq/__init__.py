"""Composite-only linear recurrence sequences.

Construct coprime positive seeds (x0, x1) making every |x_n| of
x_{n+1} = a*x_n + b*x_{n-1} composite, and independently verify the
construction with per-term compositeness certificates.
"""

from .arith import (
    Divisor,
    EffortExceeded,
    MillerRabinBase,
    NonCoprimeModuli,
    NotComposite,
    PrimeFactorization,
    SearchExhausted,
    compositeness_witness,
    coprime_shift,
    crt_solve,
    factorize,
    is_prime,
)
from .constructor import (
    ConstructionResult,
    NotConstructible,
    Support,
    construct,
    derive_seed_from_triples,
)
from .covering import Rule, is_covering, search_triples, validate_triples
from .lucas import LucasContext, composite_scan, conjecture_scan
from .recurrence import RecurrenceParams, SeedPair, iter_terms, terms
from .verifier import VerificationReport, audit_table1, verify, verify_construction
