"""The top-level names of `compseq`: each is the object its submodule
defines, and the package exports no other name but its submodules."""

import inspect

import pytest

import compseq
from compseq import arith, constructor, covering, lucas, recurrence, verifier

PUBLIC = {
    arith: (
        "Divisor",
        "EffortExceeded",
        "MillerRabinBase",
        "NonCoprimeModuli",
        "NotComposite",
        "PrimeFactorization",
        "SearchExhausted",
        "compositeness_witness",
        "coprime_shift",
        "crt_solve",
        "factorize",
        "is_prime",
    ),
    constructor: ("ConstructionResult", "NotConstructible", "Support", "construct", "derive_seed_from_triples"),
    covering: ("Rule", "is_covering", "search_triples", "validate_triples"),
    lucas: ("LucasContext", "composite_scan", "conjecture_scan"),
    recurrence: ("RecurrenceParams", "SeedPair", "iter_terms", "terms"),
    verifier: ("VerificationReport", "audit_table1", "verify", "verify_construction"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_top_level_name_is_the_submodules_object(module, name):
    assert getattr(compseq, name) is getattr(module, name)


def test_no_other_top_level_names():
    exported = {n for n, v in vars(compseq).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert len(NAMES) == 32
    assert exported == {name for _, name in NAMES}
