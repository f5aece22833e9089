"""Self-test of the benchmark's output checker.

    python3 perfbench/selftest.py

Runs small CLI operations, confirms that the checker accepts their real
output, then perturbs one value of each kind the checker covers and confirms
that every perturbed output is rejected. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from checker import PRIMES, Checker, Reference

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_output(cli, argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buffer.getvalue()


def perturb(stdout: str, index: int, key: str, change) -> str:
    """Replace records[index][key] by change(old value)."""
    records = [json.loads(line) for line in stdout.splitlines()]
    records[index][key] = change(records[index][key])
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def plus(delta: Fraction):
    return lambda text: str(Fraction(text) + delta)


def scaled(factor: float):
    return lambda text: f"{float(text) * factor:.15e}"


#: (description, argv, record index, key, change)
PERTURBATIONS = [
    ("verify: determinant h_4", ["verify", "--L", "3", "--n-max", "6"], 3, "det", plus(Fraction(1))),
    ("verify: closed form h_2 at rational L", ["verify", "--L", "5/2", "--n-max", "6"], 1, "closed", plus(Fraction(1, 7))),
    ("verify: beta-product h_6", ["verify", "--L", "5/2", "--n-max", "6"], 5, "product", lambda t: str(-Fraction(t))),
    ("verify: polynomial h_5", ["verify", "--L", "7", "--n-max", "6"], 4, "poly", plus(Fraction(PRIMES[0]))),
    ("verify: agree flag", ["verify", "--L", "2", "--n-max", "4"], 2, "agree", lambda v: False),
    ("verify: F_{2n+1} column at L = 1", ["verify", "--L", "1", "--n-max", "6"], 2, "fibonacci", lambda t: str(int(t) + 1)),
    ("hankel: closed h_9 at L = 1", ["hankel", "--L", "1", "--n", "10", "--method", "closed"], 8, "closed", plus(Fraction(2))),
    ("hankel: product h_3", ["hankel", "--L", "2/3", "--n", "8", "--method", "product"], 2, "product", plus(Fraction(1, 3))),
    ("recurrence: chain beta_3", ["recurrence", "--L", "7/3", "--n", "8"], 3, "beta", plus(Fraction(1, 100))),
    ("recurrence: moments beta_2 sign", ["recurrence", "--L", "4", "--n", "8"], 2, "beta_moments", lambda t: str(-Fraction(t))),
    ("recurrence: chain alpha_5", ["recurrence", "--L", "1/3", "--n", "8"], 5, "alpha", plus(Fraction(1, 9))),
    ("recurrence: moments alpha_0", ["recurrence", "--L", "3", "--n", "8"], 0, "alpha_moments", plus(Fraction(1))),
    ("series: G coefficient 7", ["series", "--L", "5/2", "--terms", "12", "--which", "G"], 7, "coeff", plus(Fraction(1))),
    ("series: F coefficient 4", ["series", "--L", "3", "--terms", "12", "--which", "F"], 4, "coeff", plus(Fraction(-1))),
    ("series: rho coefficient 9", ["series", "--L", "1/4", "--terms", "12", "--which", "rho"], 9, "coeff", plus(Fraction(1, 2))),
    ("series: surviving pole", ["series", "--L", "2", "--terms", "6", "--which", "G"], -1, "pole_coefficient", lambda t: "1"),
    ("quad: moment 3 off by 1e-6", ["quad", "--L", "4", "--moments", "8"], 3, "quad", scaled(1 + 1e-6)),
    ("quad: exact moment 5", ["quad", "--L", "2", "--moments", "8"], 5, "exact", plus(Fraction(1))),
    ("status field", ["quad", "--L", "2", "--moments", "8"], -1, "status", lambda t: "mismatch"),
]


def main() -> int:
    sys.path.insert(0, str(SRC))
    import hankel_catalan.cli as cli
    from hankel_catalan import gen_catalan

    failures = []
    reference = Reference()
    for L in (Fraction(2), Fraction(5, 2), Fraction(1, 3), Fraction(8)):
        if reference.catalan(L, 39) != [gen_catalan(n, L) for n in range(40)]:
            failures.append(f"Narayana form differs from gen_catalan at L = {L}")

    checker = Checker()
    for description, argv, index, key, change in PERTURBATIONS:
        argv = argv + ["--format", "json"]
        stdout = cli_output(cli, argv)
        clean = checker.check(argv, stdout)
        if clean:
            failures.append(f"{description}: real output rejected: {clean[0]}")
            continue
        problems = checker.check(argv, perturb(stdout, index, key, change))
        verdict = "rejected" if problems else "ACCEPTED"
        print(f"{verdict:9s} {description}" + (f" ({problems[0]})" if problems else ""))
        if not problems:
            failures.append(f"{description}: perturbed output accepted")

    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {len(PERTURBATIONS)} perturbations, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
