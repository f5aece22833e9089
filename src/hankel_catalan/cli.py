"""Command-line front end with machine-readable output.

Subcommands: seq, hankel, verify, recurrence, series, quad. Every exact
quantity is printed as an arbitrary-precision decimal or p/q string; only
the quad command prints float64, with explicit error columns. Exit codes:
0 all checks pass, 1 usage error, 2 mathematical mismatch. A command may
find several disagreements; the first one recorded is the one reported.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from typing import Optional, Sequence

from .genfunc import PoleNotCancelled, big_g_series, f_series, rho_series
from .hankel import odd_fibonacci
from .opoly import Pair, chain_pairs, window_pairs
from .sequences import a_sequence
from .verify import ROUTES, VerificationReport, verify_grid, verify_row
from .weight import moment_quadratures

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

#: Decimal arithmetic with room for any exponent: Fraction has no 'g' format before Python 3.12.
_WIDE = Context(Emax=MAX_EMAX, Emin=MIN_EMIN)


class CommandResult:
    def __init__(self, command: str, params: dict[str, str]):
        self.command, self.params = command, params
        self.rows: list[dict[str, object]] = []
        self.summary: dict[str, object] = {}
        self.status = "ok"

    def mismatch(self, detail: dict[str, object]) -> None:
        """Record a disagreement; only the first one recorded is reported."""
        if self.status == "ok":
            self.status = "mismatch"
            self.summary["first_mismatch"] = detail


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("L must be positive")
    return value


def _l_range(text: str) -> range | list[Fraction]:
    """A span 'a..b' over integers, as a range, or a comma-separated list of rationals."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad span: {text!r}")
        if lo < 1 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad span: {text!r}")
        return range(lo, hi + 1)
    return [_positive_rational(part) for part in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every caller shares it."""
    parser = _Parser(prog="hankel-catalan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=tuple(RENDERERS), default="plain")

    p_seq = sub.add_parser("seq", help="print a_0..a_n exactly")
    p_seq.add_argument("--L", type=_positive_rational, required=True)
    p_seq.add_argument("--n", type=int, required=True, metavar="N_MAX")
    add_format(p_seq)

    p_hankel = sub.add_parser("hankel", help="Hankel transform values by any route")
    p_hankel.add_argument("--L", type=_positive_rational, required=True)
    p_hankel.add_argument("--n", type=int, required=True, metavar="N_MAX")
    p_hankel.add_argument("--method", choices=(*ROUTES, "all"), default="all")
    add_format(p_hankel)

    p_verify = sub.add_parser("verify", help="four-route agreement grid")
    p_verify.add_argument("--L", type=_l_range, required=True, metavar="RANGE")
    p_verify.add_argument("--n-max", type=int, default=12, dest="n_max")
    add_format(p_verify)

    p_rec = sub.add_parser("recurrence", help="three-term recurrence coefficients")
    p_rec.add_argument("--L", type=_positive_rational, required=True)
    p_rec.add_argument("--n", type=int, required=True, metavar="N_MAX")
    p_rec.add_argument("--method", choices=("chain", "moments", "both"), default="both")
    add_format(p_rec)

    p_series = sub.add_parser("series", help="exact generating-function coefficients")
    p_series.add_argument("--L", type=_positive_rational, required=True)
    p_series.add_argument("--terms", type=int, default=30)
    p_series.add_argument("--which", choices=("G", "F", "rho"), default="G")
    add_format(p_series)

    p_quad = sub.add_parser("quad", help="weight-function moment quadrature check")
    p_quad.add_argument("--L", type=_positive_rational, required=True)
    p_quad.add_argument("--moments", type=int, default=8, metavar="N_MAX")
    p_quad.add_argument("--tol", type=float, default=1e-8)
    add_format(p_quad)

    return parser


# -- command bodies -----------------------------------------------------------


def _params(args: argparse.Namespace) -> dict[str, str]:
    """Every parsed option but the subcommand and the format, as text."""

    def text(value: object) -> str:
        if isinstance(value, (list, range)):
            return ",".join(map(str, value))
        return f"{value:g}" if isinstance(value, float) else str(value)

    return {k: text(v) for k, v in vars(args).items() if k not in ("command", "format")}


def cmd_seq(args, result: CommandResult) -> None:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    window = a_sequence(args.L, args.n)
    result.rows = [{"n": n, "a": str(term)} for n, term in enumerate(window.terms)]


def _report_rows(result: CommandResult, reports: Sequence[VerificationReport]) -> list[dict]:
    """One row per report: n and each route's value as text. The first report
    whose routes disagree is recorded as the mismatch.

    Agreeing routes share one conversion, since converting a large value to
    decimal can cost more than computing it.
    """
    rows = []
    for report in reports:
        if report.agree:
            text = str(next(iter(report.values.values())))
            row: dict[str, object] = {"n": report.n, **dict.fromkeys(report.values, text)}
        else:
            row = {"n": report.n, **{name: str(value) for name, value in report.values.items()}}
            result.mismatch({"L": str(report.L), **row})
        rows.append(row)
    return rows


def cmd_hankel(args, result: CommandResult) -> None:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    routes = ROUTES if args.method == "all" else (args.method,)
    reports = verify_row(args.L, args.n, routes)
    result.rows = _report_rows(result, reports)
    if args.method == "all":
        for report, row in zip(reports, result.rows):
            row["agree"] = report.agree


def cmd_verify(args, result: CommandResult) -> None:
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    reports = verify_grid(args.L, args.n_max)
    fib = odd_fibonacci(args.n_max) if any(L == 1 for L in args.L) else None
    # every row is built, and a route mismatch recorded, before the Fibonacci check
    for report, cells in zip(reports, _report_rows(result, reports)):
        row = {"L": str(report.L), **cells, "agree": report.agree}
        if fib is not None:
            row["fibonacci"] = str(fib[report.n - 1]) if report.L == 1 else ""
            if report.L == 1 and report.values["closed"] != fib[report.n - 1]:
                result.mismatch({"detail": "closed form vs Fibonacci"})
        result.rows.append(row)


def _text(pair: Pair) -> str:
    """A reduced pair as str() of its Fraction: p/q, or p alone when q = 1."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def cmd_recurrence(args, result: CommandResult) -> None:
    """Both derivations as the kernels' reduced pairs, compared with ==
    (reduced pairs with positive denominators are equal exactly when their
    values are) and printed as _text; no Fraction is built."""
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    chain = chain_pairs(args.L, args.n) if args.method != "moments" else None
    moments = window_pairs(args.L, args.n) if args.method != "chain" else None
    if chain:
        result.summary["r_last"] = _text(chain[2][args.n])
    # one row path: alpha and beta from the chain when it runs, else from the moments
    for k, (alpha, beta) in enumerate(zip(*(chain or moments)[:2])):
        row: dict[str, object] = {"k": k, "alpha": _text(alpha), "beta": _text(beta)}
        if chain:
            row["r_prev"] = _text(chain[2][k])  # r[k] is r_{k-1}; r[0] is the seed ratio
        if chain and moments:
            alpha_m, beta_m = moments[0][k], moments[1][k]
            # an agreeing pair reuses the chain's text: converting to decimal is the costly part
            equal = alpha == alpha_m and beta == beta_m
            row["alpha_moments"] = row["alpha"] if equal else _text(alpha_m)
            row["beta_moments"] = row["beta"] if equal else _text(beta_m)
            row["equal"] = equal
            if not equal:
                result.mismatch({"k": k, **{key: str(v) for key, v in row.items() if key != "k"}})
        result.rows.append(row)


def cmd_series(args, result: CommandResult) -> None:
    terms = args.terms
    if terms < 1:
        raise UsageError("--terms must be at least 1")
    order = terms - 1
    # G's t^k and F's u^{k+1} coefficients are a_k; rho has no such check
    make, lo = {"G": (big_g_series, 0), "F": (f_series, 1), "rho": (rho_series, None)}[args.which]
    try:
        series = make(args.L, order)
    except PoleNotCancelled as exc:
        result.mismatch({"detail": str(exc)})
        return
    values = series.coefficients(0, order)
    result.rows = [{"k": k, "coeff": str(value)} for k, value in enumerate(values)]
    if args.which == "G":
        result.summary["pole_coefficient"] = "0"
    if lo is not None:
        if values[lo:] != list(a_sequence(args.L, order).terms[: terms - lo]):
            result.mismatch({"detail": "coefficients differ from the sequence"})


def cmd_quad(args, result: CommandResult) -> None:
    if args.moments < 0:
        raise UsageError("--moments must be nonnegative")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError("--tol must be finite and positive")
    try:
        quad = moment_quadratures(args.L, args.moments)
        # the exact window only once the range check has passed: out of range it can be huge
        window = a_sequence(args.L, args.moments)
        exact = [float(term) for term in window.terms]
    except (OverflowError, ValueError):  # ValueError: float(L) is subnormal or past max/2
        text = str(args.L)
        if len(text) > 20:  # six digits, not the hundreds of a Fraction near the range's ends
            text = f"{_WIDE.divide(args.L.numerator, args.L.denominator).normalize(_WIDE):.6g}"
        raise UsageError(f"--L {text} --moments {args.moments} leaves the float64 range")
    worst = 0.0
    for n, approx in enumerate(quad):
        rel_err = abs(approx - exact[n]) / exact[n]
        worst = max(worst, rel_err)
        result.rows.append(
            {
                "n": n,
                "quad": f"{approx:.15e}",
                "exact": str(window.terms[n]),
                "rel_err": f"{rel_err:.3e}",
            }
        )
    result.summary["max_rel_err"] = f"{worst:.3e}"
    if not worst <= args.tol:
        result.mismatch({"detail": f"max rel err {worst:.3e} over tol {args.tol:g}"})


# -- rendering ----------------------------------------------------------------


#: One encoder for every line: json.dumps builds a new one per call when sort_keys is set.
_JSON = json.JSONEncoder(sort_keys=True)


def _render_json(result: CommandResult) -> None:
    trailer = {
        "command": result.command,
        "params": result.params,
        "status": result.status,
        **result.summary,
    }
    for record in (*result.rows, trailer):
        sys.stdout.write(_JSON.encode(record) + "\n")


def _render_csv(result: CommandResult) -> None:
    if not result.rows:
        return
    fields = list(result.rows[0].keys())
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)


def _render_plain(result: CommandResult) -> None:
    if result.rows:
        fields = list(result.rows[0].keys())
        table = [[str(row.get(name, "")) for name in fields] for row in result.rows]
        widths = [
            max(len(name), *(len(line[i]) for line in table))
            for i, name in enumerate(fields)
        ]
        print("  ".join(name.ljust(widths[i]) for i, name in enumerate(fields)))
        for line in table:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    extras = " ".join(f"{key}={value}" for key, value in result.summary.items())
    print(f"status={result.status}" + (f" {extras}" if extras else ""))


RENDERERS = {"json": _render_json, "csv": _render_csv, "plain": _render_plain}


def render(result: CommandResult, fmt: str) -> None:
    RENDERERS[fmt](result)


def _check_size(args: argparse.Namespace) -> None:
    """Raise MemoryError at once for a size that cannot fit: every command but
    quad holds a row of N + 1 exact integers, at least N^2/2 bits for any L
    (one row per L for verify, plus 1000 bytes of records per cell), against
    RLIMIT_AS, else physical memory."""
    if args.command == "quad":
        return
    import resource  # here, not at start-up
    size = max(getattr(args, {"verify": "n_max", "series": "terms"}.get(args.command, "n")), 0)
    rows, row_bytes = 1, size * size // 16
    if args.command == "verify":  # a span is counted, not built: len() stops at sys.maxsize
        rows = args.L.stop - args.L.start if isinstance(args.L, range) else len(args.L)
        row_bytes += size * 1000  # a cell's report and rows: 1.01-1.27 KB measured, CPython 3.10-3.13
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if rows * row_bytes > limit:
        raise MemoryError


COMMANDS = {
    "seq": cmd_seq,
    "hankel": cmd_hankel,
    "verify": cmd_verify,
    "recurrence": cmd_recurrence,
    "series": cmd_series,
    "quad": cmd_quad,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Exact values may run to any number of digits; lift Python's default
    # 4300-digit cap on int <-> str conversion where it exists.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_size(args)  # before _params, which writes out a span
        result = CommandResult(args.command, _params(args))
        COMMANDS[args.command](args, result)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"{parser.prog}: error: not enough memory for these sizes", file=sys.stderr)
        return EXIT_USAGE
    try:
        render(result, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the checks ran before the first byte; exit's flush goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if result.status == "ok" else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
