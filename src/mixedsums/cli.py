"""Command line front end: `verify` runs check suites over fields and
emits a report; `table` dumps the P or V values for one (q, a) as CSV.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage or
configuration error, or too little memory for the tables of the given q.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from .gf import FieldError, build_field
from .mixed import element_order, make_context, mixed_table, state_vector
from .harness import (A_POLICIES, SUITES, ConfigError, SuiteConfig, _factor_prime_power,
                      replacing, run)
from .sums import DEFAULT_TOL


def parse_q(text: str) -> tuple[int, int]:
    """Accept either 'p^n' or a plain prime-power integer."""
    base, caret, exp = text.partition("^")
    try:
        p = int(base)
        n = int(exp) if caret else None
    except ValueError:
        raise ConfigError(f"bad --q value {text!r}: expected p^n or an integer") from None
    if n is None:
        return _factor_prime_power(p)
    if n < 1:
        raise ConfigError(f"bad exponent in {text!r}")
    return p, n


def _parse_a(text: str):
    if text in A_POLICIES:
        return text
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad --a value {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixedsums")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity check suites")
    v.add_argument("--q", action="append", required=True, metavar="Q",
                   help="field size, as p^n or a prime-power integer (repeatable)")
    v.add_argument("--a", default="all",
                   help="'all', 'sample', or comma-separated element indices")
    v.add_argument("--suite", action="append", default=None,
                   choices=SUITES + ("all",))
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--out", default=None)
    v.add_argument("--format", default="json", choices=["json", "csv"])

    t = sub.add_parser("table", help="dump P or V values as CSV")
    t.add_argument("--q", required=True, metavar="Q")
    t.add_argument("--a", type=int, required=True, help="element index of a")
    t.add_argument("--object", required=True, choices=["P", "V"])
    t.add_argument("--out", default=None)
    return parser


def cmd_verify(args) -> int:
    fields = [parse_q(text) for text in args.q]
    suites = tuple(args.suite) if args.suite else ("all",)
    config = SuiteConfig(fields=fields, a_policy=_parse_a(args.a), suites=suites,
                         tol=args.tol, out_path=args.out, format=args.format)
    reports = run(config)
    failed = sum(not r.passed for r in reports)
    lines = [f"{'pass' if r.passed else 'FAIL'} {r.check_id} q={r.q}"
             + ("" if r.a is None else f" a={r.a}")
             + f" instances={r.instances} max_err={r.max_abs_err:.3e}\n" for r in reports]
    sys.stdout.write("".join(lines) + f"{len(reports) - failed}/{len(reports)} checks passed\n")
    return 1 if failed else 0


def cmd_table(args) -> int:
    p, n = parse_q(args.q)
    field = build_field(p, n)
    ctx = make_context(field, args.a)
    with replacing(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.writer(out)
        at = element_order(field)  # V and P are in log order: read them by element
        if args.object == "V":
            writer.writerow(["j", "re", "im"])
            for j, v in enumerate(state_vector(ctx)[at]):
                writer.writerow([j, repr(float(v.real)), repr(float(v.imag))])
        else:
            writer.writerow(["j", "k", "re", "im"])
            P = mixed_table(ctx)
            for j, row in enumerate(at):  # P(j, k), one row at a time
                for k, z in enumerate(P[row, at].tolist()):
                    writer.writerow([j, k, repr(z.real), repr(z.imag)])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except (ConfigError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        qs = [args.q] if isinstance(args.q, str) else args.q
        print(f"error: out of memory at q = {', '.join(qs)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
