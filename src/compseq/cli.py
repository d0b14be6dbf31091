"""Command-line front end.

Subcommands: construct, verify, triples, table, conjecture, lucas.
Exit codes: 0 success/pass, 1 verification failure, 2 not constructible,
3 argument errors, 4 output too large (a number in the output has more
decimal digits than Python converts to text, 4300 by default; ask for
fewer terms or a smaller index), 5 effort exceeded (a number the command
had to factorize resisted the factoring effort bound), 6 internal error
(a search ran out of candidates or an internal check failed; a bug to
report), 7 output not written (stdout was closed, or the -o file could not
be written).  Pass/fail is signalled only through the exit code; --json emits
machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import constructor as C
from . import covering, lucas, verifier
from .arith import EffortExceeded, SearchExhausted
from .recurrence import RecurrenceParams, SeedPair

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NOT_CONSTRUCTIBLE = 2
EXIT_USAGE = 3
EXIT_TOO_LARGE = 4
EXIT_EFFORT = 5
EXIT_INTERNAL = 6
EXIT_OUTPUT = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _nonzero(text: str) -> int:
    value = int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2) if args.json else _render(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except OSError:
        # What stdout still buffers would fail again in the flush at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _render(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _int_digits(n: int) -> dict:
    value, digits = verifier.decimal_digits(n)
    return {"value": value, "digits": digits}


def cmd_construct(args) -> int:
    try:
        result = C.construct(args.a, args.b)
    except C.NotConstructible as exc:
        _emit({"verdict": "not_constructible", "reason": exc.reason}, args)
        return EXIT_NOT_CONSTRUCTIBLE
    report = verifier.verify_construction(result, n_terms=args.terms)
    payload = {
        "strategy": result.strategy,
        "x0": _int_digits(result.seed.x0),
        "x1": _int_digits(result.seed.x1),
        "report": report.to_dict(),
    }
    _emit(payload, args)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_verify(args) -> int:
    params = RecurrenceParams(args.a, args.b)
    seed = SeedPair(args.x0, args.x1)
    report = verifier.verify(params, seed, args.terms)
    _emit(report.to_dict(), args)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_triples(args) -> int:
    params = RecurrenceParams(args.a, args.b)
    try:
        rules = covering.search_triples(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if rules is None:
        _emit({"found": False}, args)
        return EXIT_FAIL
    payload = {"found": True, "triples": [{"p": p, "m": m, "r": r} for p, r, m in rules]}
    _emit(payload, args)
    return EXIT_PASS


def cmd_table(args) -> int:
    rows = verifier.audit_table1(n_terms=args.terms)
    payload = {"rows": [r.to_dict() for r in rows]}
    _emit(payload, args)
    ok = all(r.triples_valid and r.paper_report.verdict for r in rows)
    anomalous = [r for r in rows if r.anomalies]
    if anomalous and not args.json:
        for r in anomalous:
            print(f"note: ({r.a}, {r.b}): {'; '.join(r.anomalies)}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_conjecture(args) -> int:
    a_values = [a for a in range(-args.a_max, args.a_max + 1) if abs(a) >= 3]
    violations = lucas.conjecture_scan(a_values, args.p_max)
    payload = {
        "a_max": args.a_max,
        "p_max": args.p_max,
        "violations": [
            {"a": v.a, "p": v.p, "q": v.q, "gcd": v.gcd} for v in violations
        ],
    }
    _emit(payload, args)
    return EXIT_PASS


def cmd_lucas(args) -> int:
    ctx = lucas.LucasContext(RecurrenceParams(args.a, args.b))
    value = ctx.u(args.n)
    _emit({"n": args.n, "u": _int_digits(value)}, args)
    return EXIT_PASS


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(prog="compseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("-a", type=int, required=True)
        p.add_argument("-b", type=int, required=True)
        if seeds:
            p.add_argument("--x0", type=int, required=True)
            p.add_argument("--x1", type=int, required=True)
        p.add_argument("--terms", type=_non_negative, default=200)
        p.add_argument("--json", action="store_true")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("construct", help="construct and verify a composite-only seed pair")
    common(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify user-supplied seeds")
    common(p, seeds=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("triples", help="search covering triples for (a, b)")
    common(p)
    p.set_defaults(fn=cmd_triples)

    p = sub.add_parser("table", help="audit the embedded small-coefficient table")
    p.add_argument("--terms", type=_non_negative, default=100)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("conjecture", help="scan gcd(u_p, u_q) at prime indices, b = -1")
    p.add_argument("--a-max", type=_non_negative, default=10)
    p.add_argument("--p-max", type=_non_negative, default=31)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("lucas", help="print a Lucas-sequence term")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=_nonzero, required=True)
    p.add_argument("-n", type=_non_negative, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_lucas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except verifier.OutputTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except EffortExceeded as exc:
        print(f"error: effort exceeded: {exc}", file=sys.stderr)
        return EXIT_EFFORT
    except (SearchExhausted, AssertionError) as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # only writing the output does I/O
        print(f"error: output could not be written: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
