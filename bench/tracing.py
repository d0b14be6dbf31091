"""Spans and counters recorded around compseq's functions, from outside.

`Tracer.install` replaces every module binding of each traced function
(several compseq modules import functions by name and so hold their own
reference), two methods on their classes, and `json.dumps` as `cli` looks
it up. Spans record name, start, end and parent index; they stay in memory
until `write`. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

# Strategy tags of compseq.constructor, one count each.
STRATEGIES = (
    "AZero",
    "DegenerateDisc",
    "CaseI",
    "CaseII",
    "CaseIIIa",
    "CaseIIIb",
    "CaseIIIc",
    "TwoPrimeFactors",
    "CoveringCRT",
    "Table1",
    "Periodic3",
    "Periodic6",
    "Vsemirnov",
    "VsemirnovReflected",
)

# Span name -> the stats reported for it.
SPAN_STATS = {
    "cli.main": ("calls", "self_s"),
    "cli.json_dumps": ("self_s",),
    "verifier.verify": ("calls", "self_s"),
    "verifier.to_dict": ("self_s",),
    "arith.compositeness_witness": ("calls", "self_s"),
    "arith.is_prime": ("calls", "self_s"),
    "arith.factorize": ("calls", "self_s"),
    "arith.crt_solve": ("self_s",),
    "arith.coprime_shift": ("self_s",),
    "recurrence.terms": ("calls", "self_s"),
    "lucas.u": ("calls", "self_s"),
    "covering.validate_triples": ("calls", "self_s"),
    "covering.is_covering": ("self_s",),
    "constructor.construct": ("calls", "self_s"),
    "constructor.pick_primes": ("self_s",),
    "constructor.derive_seed_from_triples": ("self_s",),
}

COUNTERS = (
    ("cli.output_bytes", "bytes"),
    ("verifier.certificates", "count"),
    ("arith.witness.divisor", "count"),
    ("arith.witness.mr_base", "count"),
    ("arith.witness.not_composite", "count"),
    ("arith.factorize.effort_exceeded", "count"),
    ("recurrence.terms_generated", "count"),
    ("recurrence.max_term_bits", "bits"),
) + tuple((f"constructor.strategy.{tag}", "count") for tag in STRATEGIES)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = "s" if stat == "self_s" else "count"
    units.update(COUNTERS)
    units["verifier.hint_hit_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, name, fn, on_result=None, on_error=None) -> list[str]:
        """Replace every binding of fn in compseq's modules; returns where."""
        wrapper = self.wrap(name, fn, on_result, on_error)
        patched = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "compseq" and not mod_name.startswith("compseq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    patched.append(f"{mod_name}.{attr}")
        return patched

    def install(self) -> list[str]:
        """Patch all traced functions; returns every binding replaced."""
        from compseq import arith, cli, constructor, covering, lucas, recurrence, verifier

        counts = self.counts

        def witness(w):
            counts[f"arith.witness.{w.kind}"] += 1

        def factorize_error(exc):
            if isinstance(exc, arith.EffortExceeded):
                counts["arith.factorize.effort_exceeded"] += 1

        def generated(xs):
            counts["recurrence.terms_generated"] += len(xs)
            bits = max(abs(x).bit_length() for x in xs)
            counts["recurrence.max_term_bits"] = max(counts["recurrence.max_term_bits"], bits)

        def certified(report):
            counts["verifier.certificates"] += len(report.certificates)

        def constructed(result):
            counts[f"constructor.strategy.{result.strategy}"] += 1

        patched = []
        for name, fn, on_result, on_error in (
            ("cli.main", cli.main, None, None),
            ("verifier.verify", verifier.verify, certified, None),
            ("arith.compositeness_witness", arith.compositeness_witness, witness, None),
            ("arith.is_prime", arith.is_prime, None, None),
            ("arith.factorize", arith.factorize, None, factorize_error),
            ("arith.crt_solve", arith.crt_solve, None, None),
            ("arith.coprime_shift", arith.coprime_shift, None, None),
            ("recurrence.terms", recurrence.terms, generated, None),
            ("covering.validate_triples", covering.validate_triples, None, None),
            ("covering.is_covering", covering.is_covering, None, None),
            ("constructor.construct", constructor.construct, constructed, None),
            ("constructor.pick_primes", constructor.pick_primes_bminus1, None, None),
            ("constructor.pick_primes", constructor.pick_primes_bplus1, None, None),
            ("constructor.derive_seed_from_triples", constructor.derive_seed_from_triples, None, None),
        ):
            patched += self.patch_function(name, fn, on_result, on_error)

        report_cls = verifier.VerificationReport
        self._set(report_cls, "to_dict", self.wrap("verifier.to_dict", report_cls.to_dict))
        self._set(lucas.LucasContext, "u", self.wrap("lucas.u", lucas.LucasContext.u))
        json_for_cli = types.ModuleType("json")
        json_for_cli.__dict__.update(vars(json))
        json_for_cli.dumps = self.wrap("cli.json_dumps", json.dumps)
        self._set(cli, "json", json_for_cli)
        return patched + ["VerificationReport.to_dict", "LucasContext.u", "cli.json.dumps"]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        inside_verify = [False] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        # A parent's index is below its children's, so its flag is set first.
        witness_in_verify = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            inside_verify[i] = name == "verifier.verify" or (parent >= 0 and inside_verify[parent])
            if name == "arith.compositeness_witness" and inside_verify[i]:
                witness_in_verify += 1

        out = {}
        for span, stats in SPAN_STATS.items():
            for stat in stats:
                out[f"{span}.{stat}"] = calls[span] if stat == "calls" else self_s.get(span, 0.0)
        for name, _ in COUNTERS:
            out[name] = self.counts[name]
        certs = self.counts["verifier.certificates"]
        out["verifier.hint_hit_ratio"] = (certs - witness_in_verify) / certs if certs else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
