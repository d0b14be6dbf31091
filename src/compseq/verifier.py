"""Independent audit of composite-only constructions.

Given (a, b, x0, x1, N), certifies coprimality and per-term compositeness,
and runs the divisor-rule audit for every strategy: each index must be
claimed by one of the construction's rules, and every claimed divisor must
properly divide its term.  Without stated rules it reads rules from the
terms (`covering.discover_rules`).  Certificates prefer a rule's divisor,
then the witness `arith.compositeness_witness` gives with x_{n-2} as
neighbour.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

from . import constructor as C
from .arith import (
    MR_DETERMINISTIC_BOUND,
    CompositenessCertificate,
    Divisor,
    MillerRabinBase,
    NotComposite,
    Witness,
    compositeness_witness,
    factorize,  # noqa: F401  unused; bench/test_bench.py expects tracing to patch it here
    int_text,
    make_certificates,
    screen,
    witness_past_screen,
)
from .covering import discover_rules, validate_triples
from .recurrence import RecurrenceParams, SeedPair, decimal_texts, terms


# Certificates per piece of VerificationReport.json_pieces, so a report is
# written in one write per block, not one per certificate.
CERTIFICATE_BLOCK = 64


class OutputTooLarge(ValueError):
    """An integer has more decimal digits than Python's int-to-str limit allows."""


def _int_max_str_digits() -> int:
    """Python's int-to-str digit limit; 0 means none (as before 3.10.7)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def _too_large(n: int) -> OutputTooLarge:
    return OutputTooLarge(
        f"a {n.bit_length()}-bit integer has more than the "
        f"{_int_max_str_digits()} decimal digits Python converts to text"
    )


def decimal_digits(n: int) -> tuple[str, int]:
    """n in decimal and the number of digits of |n|, from one conversion.

    Raises OutputTooLarge where the interpreter's int-to-str digit limit
    refuses the conversion.
    """
    try:
        text = str(n)
    except ValueError:
        raise _too_large(n) from None
    return text, len(text) - (n < 0)


@dataclass(frozen=True)
class VerificationReport:
    params: RecurrenceParams
    seed: SeedPair
    horizon: int
    verdict: bool
    coprime_ok: bool
    failures: tuple[str, ...]
    certificates: tuple[CompositenessCertificate, ...]
    construction: C.ConstructionResult | None = None
    covering_law_ok: bool | None = None
    # The certificates tuple `verify` made, for x_0..x_N of (params, seed).
    _made_by_verify: tuple[CompositenessCertificate, ...] | None = field(default=None, repr=False, compare=False)

    def _term_texts(self) -> list[str]:
        """Each certificate's term in decimal; see json_pieces."""
        certs = self.certificates
        if certs is not self._made_by_verify:
            return [decimal_digits(cert.term)[0] for cert in certs]
        texts = decimal_texts(self.params, self.seed, len(certs) - 1)
        limit = _int_max_str_digits()
        # A text is no shorter than its digit count, so one max clears a report
        # within the limit; past it, the first term over the limit is named.
        if limit and max(map(len, texts)) > limit:
            for cert, text in zip(certs, texts):
                if len(text) - (cert.term < 0) > limit:
                    raise _too_large(cert.term)
        return texts

    def json_fields(self) -> tuple[dict, dict]:
        """The keys before and after "certificates", as to_json writes them.
        Text mode prints these with the certificates by count, so it converts
        no term to decimal."""
        head = {
            "params": {"a": self.params.a, "b": self.params.b},
            "seed": {
                "x0": decimal_digits(self.seed.x0)[0],
                "x1": decimal_digits(self.seed.x1)[0],
            },
            "horizon": self.horizon,
            "verdict": "pass" if self.verdict else "fail",
            "coprime_ok": self.coprime_ok,
            "failures": list(self.failures),
        }
        c = self.construction
        tail = {"strategy": c.strategy if c is not None else None}
        if c is not None and c.support is not None:
            tail["triples"] = [{"p": p, "m": m, "r": r} for p, r, m in c.rules]
            tail.update(P=c.support.P, y=c.support.y, z=c.support.z)
        if self.covering_law_ok is not None:
            tail["covering_law_ok"] = self.covering_law_ok
        return head, tail

    def json_pieces(self, pad: str = "") -> Iterator[str]:
        """The report's JSON text in pieces: the keys before "certificates",
        one piece per block of up to CERTIFICATE_BLOCK certificates, then the
        rest.  Joined, they are `json.dumps(self.to_dict(), indent=2)` with
        every line after the first prefixed by pad; terms and seeds are
        decimal strings.

        Every term text is made before this returns, so an OutputTooLarge
        comes before the first piece.  When the certificates are the tuple
        `verify` made, x_0..x_N of (params, seed), the term texts come from
        `recurrence.decimal_texts`, the recurrence run in base 10, in time
        linear in each term's length (str(int) is quadratic); a term with
        more digits than Python's int-to-str limit still raises the
        OutputTooLarge that str() would.  Any other certificates, as in a
        hand-built or edited report, print each term's own text by
        `decimal_digits`.  A term text is only digits and a sign, so each
        certificate is written by one template with pad in it, without
        escaping; its text after "term_digits" is made once per witness
        object.  The other keys go through json.dumps.
        """
        texts = self._term_texts()
        head, tail = self.json_fields()
        nl = "\n" + pad
        head_text = json.dumps(head, indent=2)[:-2].replace("\n", nl)  # without its closing "\n}"
        tail_text = json.dumps(tail, indent=2)[2:].replace("\n", nl)  # without its opening "{\n"
        certs = self.certificates
        # A certificate is open_, n, term_at, its term, digits_at, its digit
        # count, then its witness's text, keyed by id(): certs keeps every
        # witness alive while the pieces are made.
        open_ = f'{nl}    {{{nl}      "n": '
        term_at = f',{nl}      "term": "'
        digits_at = f'",{nl}      "term_digits": '

        def pieces() -> Iterator[str]:
            yield f'{head_text},{nl}  "certificates": ['
            after_digits: dict[int, str] = {}
            for start in range(0, len(certs), CERTIFICATE_BLOCK):
                block = []
                stop = start + CERTIFICATE_BLOCK
                for (n, term, witness), text in zip(certs[start:stop], texts[start:stop]):
                    rest = after_digits.get(id(witness))
                    if rest is None:
                        rest = after_digits[id(witness)] = (
                            f',{nl}      "witness_kind": "{witness.kind}",{nl}'
                            f'      "witness_value": {_witness_value(witness)}{nl}    }}'
                        )
                    block.append(f"{open_}{n}{term_at}{text}{digits_at}{len(text) - (term < 0)}{rest}")
                yield ("," if start else "") + ",".join(block)
            yield f"{nl}  ],{nl}{tail_text}" if certs else f"],{nl}{tail_text}"

        return pieces()

    def to_json(self, pad: str = "") -> str:
        """The report's JSON text, `json_pieces(pad)` joined."""
        return "".join(self.json_pieces(pad))

    def to_dict(self) -> dict:
        """The report as JSON data: `to_json`, parsed."""
        return json.loads(self.to_json())


def _witness_value(witness: Witness) -> int | str:
    """witness_value in JSON: the divisor, the base, or null."""
    if isinstance(witness, Divisor):
        return witness.d
    return witness.base if isinstance(witness, MillerRabinBase) else "null"


def verify(
    params: RecurrenceParams,
    seed: SeedPair,
    n_terms: int,
    construction: C.ConstructionResult | None = None,
) -> VerificationReport:
    """Full audit: positivity, coprimality, per-term compositeness certificates,
    and the divisor-rule audit for every strategy whose construction states
    rules.  A rule Rule(d, s, k) holds if d > 1 divides x_s and x_{s+k} (two
    divisions: by the stride identity below, d then divides its whole class)
    and no claimed term is 0, d or -d (membership tests on the claimed slice).
    A rule that fails either check is audited term by term, with one failure
    per claimed term that d does not properly divide.  The divisor of the
    first rule that properly divides x_n is its certificate.  Without stated
    rules, the rules covering.discover_rules reads from x_0..x_N take the
    same audit, a failing one term by term too, but they add no failure and
    no covering_law_ok.
    Every other term x_n gets compositeness_witness(x_n, x_{n-2}), with 0
    in place of x_{n-2} for n < 2.  The terms with |x_n| >=
    MR_DETERMINISTIC_BOUND take its two steps apart: one arith.screen call
    for all of them, then witness_past_screen for each term the screen
    leaves."""
    failures: list[str] = []
    coprime_ok = math.gcd(seed.x0, seed.x1) == 1
    if not coprime_ok:
        failures.append(f"gcd(x0, x1) = {int_text(math.gcd(seed.x0, seed.x1))} != 1")
    if seed.x0 <= 0:
        failures.append("x0 not positive")
    if seed.x1 <= 0:
        failures.append("x1 not positive")

    xs = terms(params, seed, n_terms)
    size = len(xs)
    stated = construction.rules if construction is not None else ()
    rules = stated or discover_rules(xs)
    covering_law_ok = None
    witnesses: list[Witness | None] = [None] * size
    if rules:
        before = len(failures)
        claimed = bytearray(size)
        writes = []  # (indices, Divisor), written last rule first: the first rule wins
        for rule in rules:
            d, start, step = rule
            if start < 0 or step < 0:
                failures.append(f"{rule} needs start >= 0 and step >= 0")
                continue
            witness = Divisor(d)
            ns = range(start, size, step or size)
            column = xs[start :: ns.step]
            claimed[start :: ns.step] = b"\x01" * len(ns)
            # x_{n+2k} = V_k*x_{n+k} - (-b)^k*x_n, V_k the trace of [[a, b], [1, 0]]^k
            # (Cayley-Hamilton), so d | x_s, x_{s+k} gives d | the whole column;
            # a multiple of d > 1 is a proper one unless it is 0 or +-d.
            if column and 1 < d and not (column[0] % d or len(column) > 1 and column[1] % d):
                if 0 not in column and d not in column and -d not in column:
                    writes.append((ns, witness))
                    continue
            for n in ns:
                t = abs(xs[n])
                if 1 < d < t and t % d == 0:
                    writes.append((range(n, n + 1), witness))
                elif stated:
                    failures.append(f"claimed {int_text(d)} is not a proper divisor of x_{n}")
        for ns, witness in reversed(writes):
            witnesses[ns.start : ns.stop : ns.step] = [witness] * len(ns)
        if stated:
            if not all(claimed):
                failures += [f"index {n} not claimed by any rule" for n in range(size) if not claimed[n]]
            covering_law_ok = len(failures) == before
    todo = [n for n, witness in enumerate(witnesses) if witness is None]
    big = [n for n in todo if abs(xs[n]) >= MR_DETERMINISTIC_BOUND]
    if big:
        primes = screen([xs[n] for n in big])
        divisors = {p: Divisor(p) for p in set(primes) - {None}}
        for n, p in zip(big, primes):
            neighbour = xs[n - 2] if n >= 2 else 0
            witnesses[n] = witness_past_screen(abs(xs[n]), neighbour) if p is None else divisors[p]
    for n in todo:
        witness = witnesses[n]
        if witness is None:
            witness = witnesses[n] = compositeness_witness(xs[n], xs[n - 2] if n >= 2 else 0)
        if isinstance(witness, NotComposite):
            failures.append(f"|x_{n}| = {int_text(abs(xs[n]))} is not composite")
    certificates = make_certificates(range(size), xs, witnesses)

    return VerificationReport(
        params=params,
        seed=seed,
        horizon=n_terms,
        verdict=not failures,
        coprime_ok=coprime_ok,
        failures=tuple(failures),
        certificates=certificates,
        construction=construction,
        covering_law_ok=covering_law_ok,
        _made_by_verify=certificates,
    )


def verify_construction(
    construction: C.ConstructionResult, n_terms: int = 200
) -> VerificationReport:
    return verify(
        construction.params, construction.seed, n_terms, construction=construction
    )


@dataclass(frozen=True)
class Table1RowReport:
    """One Table 1 row: `report` is `verify_construction` of the row's rules
    and published seed pair, so its verdict covers compositeness and the
    covering law together."""

    report: VerificationReport
    triples_valid: bool
    anomalies: tuple[str, ...]

    def to_dict(self) -> dict:
        report = self.report
        return {
            "a": report.params.a,
            "b": report.params.b,
            "triples_valid": self.triples_valid,
            "paper_seed": {"x0": report.seed.x0, "x1": report.seed.x1},
            "paper_verdict": "pass" if report.verdict else "fail",
            "covering_law_ok": report.covering_law_ok,
            "anomalies": list(self.anomalies),
        }


def audit_table1(n_terms: int = 100) -> list[Table1RowReport]:
    """Validate every fixture row's triples and verify its published seed pair.

    Each row's rules and seeds are verified as one Table1 construction, so
    its `paper_verdict` fails when a term is not composite or when the rules
    do not cover and properly divide every term.  Anomalies (like the
    (3, -1) row listing x0 > x1) are recorded, not raised.
    """
    reports = []
    for (a, b), (rules, x0, x1) in C.TABLE1.items():
        params = RecurrenceParams(a, b)
        row = C.ConstructionResult(params, SeedPair(x0, x1), C.TABLE1_STRATEGY, rules)
        anomalies = []
        if x0 >= x1:
            anomalies.append(f"published pair has x0 = {x0} >= x1 = {x1}")
        reports.append(
            Table1RowReport(
                verify_construction(row, n_terms),
                not validate_triples(params, rules),
                tuple(anomalies),
            )
        )
    return reports
