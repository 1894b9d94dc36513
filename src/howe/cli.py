"""Command-line front end.

Verbs:
  build         analyse one configuration and print the full report
  verify-paper  replay the seven bundled reference examples and diff them
  sample        draw random configurations and tabulate singularity types
  scan          compare located singular points against a brute-force scan

Exit codes: 0 success (and --help), 1 reference or oracle mismatch,
2 field error, 3 input validation error (a usage error such as a missing
or unknown option included), 4 scan budget exceeded, 5 internal failure:
an invariant check or any unexpected exception (stderr then carries the
traceback and a one-line replay record), 141 stdout closed by its reader
(as in ``howe verify-paper | head -1``; nothing failed, nothing is printed).

Each verb imports the modules it uses when it runs, so a process loads
only its own verb's code: ``build`` never loads the reference table or the
sampler, and ``scan`` never loads the report or the irreducibility
certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    DuplicateRamificationPointError,
    InfinityNotSupportedError,
    UnsupportedFieldError,
)
from .field import Field, is_prime, prime_field, rational_field

SCAN_PRIME_LIMIT = 97

#: digits allowed in a rational input's numerator and denominator (parse_points)
MAX_RATIONAL_DIGITS = 100

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_FIELD = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


class FieldArgumentError(Exception):
    pass


class InputArgumentError(Exception):
    """A command-line value that does not parse or is out of range."""


def parse_field(text: str) -> Field:
    if text == "rational":
        return rational_field()
    if text.startswith("p="):
        body = text[2:]
        try:
            p = int(body)
        except ValueError:
            raise FieldArgumentError(f"not an integer modulus: {body!r}") from None
        if not is_prime(p):
            raise FieldArgumentError(f"{p} is not prime")
        if p < 5:
            raise FieldArgumentError("the construction needs characteristic 0 or >= 5")
        return prime_field(p)
    raise FieldArgumentError(f"unrecognised field {text!r}; use p=<prime> or rational")


_INFINITY_TOKENS = {"inf", "infinity", "oo", "+inf", "-inf"}


def _digit_bound_error(what: str, part: str) -> InputArgumentError:
    return InputArgumentError(f"{what} value {part[:20]}...: numerator and denominator"
                              f" may have at most {MAX_RATIONAL_DIGITS} digits over Q")


def _parse_rational(what: str, part: str) -> Fraction:
    """``Fraction(part)``, with a decimal exponent too large for the digit
    bound rejected before conversion.

    ``Fraction`` builds 10^|e|, a number of |e| + 1 digits, before the
    bound can be checked.  A token with |e| > D + L, for D = ``MAX_RATIONAL_DIGITS`` and L the length
    of the text before the e, fails the bound unless its value is 0: that
    value is M * 10^(e - k) for an integer M of at most L digits and k <= L
    decimals, so in lowest terms the numerator (e > 0) or the denominator
    (e < 0) of a nonzero value exceeds 10^D.
    """
    mantissa, e, exponent = part.lower().partition("e")
    if e and abs(int(exponent)) > MAX_RATIONAL_DIGITS + len(mantissa):
        value = Fraction(mantissa + "e0")  # checks the syntax in bounded time
        if value:
            raise _digit_bound_error(what, part)
        return value
    return Fraction(part)


def parse_points(field: Field, text: str, what: str):
    """Comma-separated field elements: integers, or n/d fractions over Q.

    Over Q a value's numerator and denominator, in lowest terms, may have
    at most D = ``MAX_RATIONAL_DIGITS`` digits: CPython converts integers
    of at most 4300 digits to text.  The largest printed value is
    Res(h1, h1') = -a disc(h1), of degree 5 in the differences s_k - t_k.
    With P the product of the eight denominators, each difference times P
    is an integer below 12 * 10^(8 D), so the resultant's denominator
    divides P^5 and its numerator is below 54 * 12^5 * 10^(40 D) (54 sums
    the absolute coefficients of -a disc): at most 40 D + 8 = 4008 digits.
    The other printed values are smaller; the next largest, -8 phi1(xi) at
    a rational root of h1, has at most 36 D + 13 digits.  A decimal exponent
    too large for the bound is rejected before conversion, so every token
    parses in bounded time.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InputArgumentError(f"--{what} needs exactly 4 comma-separated values")
    out = []
    for part in parts:
        if part.lower() in _INFINITY_TOKENS:
            raise InfinityNotSupportedError(
                f"{what} value {part!r}: branch values must be finite"
            )
        try:
            value = _parse_rational(what, part) if field.kind == "rational" else int(part)
        except ZeroDivisionError:
            raise InputArgumentError(f"{what} value {part!r} has a zero denominator") from None
        except ValueError as exc:
            raise InputArgumentError(f"{what} value {part!r}: {exc}") from None
        if field.kind == "rational" and max(
                abs(value.numerator), value.denominator) >= 10**MAX_RATIONAL_DIGITS:
            raise _digit_bound_error(what, part)
        out.append(field(value))
    return out


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_build(args) -> int:
    from .report import analyze, render_text, to_json
    from .sextic import validate

    field = parse_field(args.field)
    alphas = parse_points(field, args.alpha, "alpha")
    betas = parse_points(field, args.beta, "beta")
    rd = validate(alphas, betas)
    report = analyze(rd, args.seed)
    if args.json:
        print(to_json(report))
    else:
        print(render_text(report))
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from .reference import run_reference_checks

    outcomes = run_reference_checks(args.seed)
    payload = {
        "schema": 1,
        "examples": [
            {"name": o.name, "passed": o.passed, "diffs": o.diffs} for o in outcomes
        ],
        "passed": sum(o.passed for o in outcomes),
        "total": len(outcomes),
    }
    lines = []
    for o in outcomes:
        lines.append(f"{o.name}: {'pass' if o.passed else 'FAIL'}")
        for d in o.diffs:
            lines.append(f"    {d}")
    lines.append(f"{payload['passed']}/{payload['total']} reference examples match")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if payload["passed"] == payload["total"] else EXIT_MISMATCH


def cmd_sample(args) -> int:
    from .sampling import sample_types

    if args.count < 0:
        raise InputArgumentError(f"--count must be >= 0, got {args.count}")
    field = parse_field(args.field)
    if field.kind != "prime":
        raise FieldArgumentError("sampling draws uniform elements; use a prime field")
    summary = sample_types(field, args.count, args.seed)
    payload = {"schema": 1, "field": {"kind": "prime", "p": field.p}}
    payload.update(summary.as_dict())
    lines = [f"sampled {summary.count} configurations over F_{field.p} (seed {summary.seed})"]
    for label in ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "II-4"):
        n = summary.type_counts.get(label, 0)
        if n:
            lines.append(f"  {label}: {n}")
    lines.append(
        "  with 4 double points: "
        f"{summary.total_counts.get(4, 0)} ({summary.fraction_with_four:.4f})"
    )
    lines.append(f"  irreducibility failures: {summary.irreducibility_failures}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_scan(args) -> int:
    from .sextic import build_model, validate
    from .singular import brute_force_singular_scan, rational_point_set, singular_points

    field = parse_field(args.field)
    if field.kind != "prime" or field.p > SCAN_PRIME_LIMIT:
        raise BudgetExceededError(
            f"scan enumerates the projective plane; the field must be prime with"
            f" p <= {SCAN_PRIME_LIMIT}"
        )
    alphas = parse_points(field, args.alpha, "alpha")
    betas = parse_points(field, args.beta, "beta")
    rd = validate(alphas, betas)
    model = build_model(rd)
    located = singular_points(rd, args.seed, model)
    symbolic = rational_point_set(located)
    scanned = set(brute_force_singular_scan(model.F))
    agree = symbolic == scanned
    payload = {
        "schema": 1,
        "field": {"kind": "prime", "p": field.p},
        "symbolic": sorted(symbolic),
        "scan": sorted(scanned),
        "agree": agree,
    }
    lines = [
        f"symbolic rational points: {sorted(symbolic)}",
        f"scan found:               {sorted(scanned)}",
        "agreement: " + ("yes" if agree else "NO"),
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if agree else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 3, not 2, which means a field error
    here; the message still goes to stderr.  Options must be spelt in full:
    an abbreviation such as ``--alph`` is an unrecognized argument, because
    ``_join_point_lists`` attaches a point list only to ``--alpha`` and
    ``--beta``.  Subparsers are built from this class too.

    argparse reports a missing required option before an unrecognized one,
    so a missing-option error names the unrecognized ``--`` options first:
    the user then sees ``--alph`` as well as the ``--alpha`` it did not
    stand for."""

    _argv = ()  # the tokens given to the last parse_known_args

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if message.startswith("the following arguments are required"):
            unknown = [t.partition("=")[0] for t in self._argv
                       if t.startswith("--") and t != "--"
                       and t.partition("=")[0] not in self._option_string_actions]
            if unknown:
                message = f"unrecognized arguments: {' '.join(unknown)}; {message}"
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _join_point_lists(argv) -> list:
    """Attach the value after --alpha or --beta to the option as --alpha=...

    argparse takes a token such as ``-1,0,2,20`` for an option, so a point
    list that starts with a negative value would otherwise not parse.  A
    following token that starts with ``--`` is left alone, so a missing
    value is still reported as one.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--alpha", "--beta") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="howe",
        description=(
            "Plane sextic models for the genus-5 curves glued from two"
            " genus-1 double covers: construction, singularity"
            " classification, and irreducibility certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, points: bool):
        p.add_argument("--field", required=True, help="p=<prime> or rational")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if points:
            p.add_argument("--alpha", required=True, help="a1,a2,a3,a4")
            p.add_argument("--beta", required=True, help="b1,b2,b3,b4")

    p_build = sub.add_parser("build", help="analyse one configuration")
    common(p_build, points=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser(
        "verify-paper", help="replay the bundled reference examples"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify_paper)

    p_sample = sub.add_parser("sample", help="type distribution of random draws")
    common(p_sample, points=False)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_scan = sub.add_parser("scan", help="brute-force oracle comparison")
    common(p_scan, points=True)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def replay_record(args) -> str:
    """One line with the inputs that reproduce a run of this command."""
    parts = [f"{name}={getattr(args, name)}"
             for name in ("field", "alpha", "beta", "seed", "count")
             if getattr(args, name, None) is not None]
    return " ".join(["replay", *parts, f"command={args.command}"])


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_join_point_lists(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped reading; send the unflushed rest to /dev/null so
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (FieldArgumentError, UnsupportedFieldError) as exc:
        print(f"field error: {exc}", file=sys.stderr)
        return EXIT_FIELD
    except (InputArgumentError, DuplicateRamificationPointError,
            InfinityNotSupportedError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        # inputs were accepted, so any other failure (a certificate, cross-check
        # or count invariant, or an unexpected exception) is a bug, not bad input
        import traceback  # here, not at the top: it adds ~4 ms to every start

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(replay_record(args), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
