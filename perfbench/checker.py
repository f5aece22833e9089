"""Independent checker for the JSON output of the hankel-catalan CLI.

Nothing here imports the package. The reference values come from other
formulas and other algorithms than the program's own:

* c(n; L) from the Narayana-polynomial form sum_k C(n,k) C(n,k-1)/n L^k
  (the program sums the generalized Pascal triangle), a_n = c_n + c_{n+1};
* the leading Hankel minors h_1..h_N and the recurrence coefficients
  alpha_k, beta_k from one Gaussian elimination of the moment matrix
  (a_{i+j}) modulo large primes (the program uses Bareiss elimination, the
  surd closed form, the modification chain and the Stieltjes procedure);
* h_n(1) = F_{2n+1} exactly;
* the coefficients of sqrt(1 - 2(L+1)t + (L-1)^2 t^2), which are
  1, -(L+1), -2 c(1), -2 c(2), ...

`check(argv, stdout)` returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np

#: The four largest primes below 2^31. Two of them check each value, so a
#: wrong value passes with odds near 2^-62; the others stand in when a pivot
#: vanishes modulo one of the first two.
PRIMES = (2**31 - 1, 2**31 - 19, 2**31 - 61, 2**31 - 69)
PRIMES_PER_CHECK = 2


class UnluckyPrime(ArithmeticError):
    """A leading minor vanished modulo the prime, so elimination cannot continue."""


class Reference:
    """Reference sequence values and moment-matrix eliminations, cached per L."""

    def __init__(self) -> None:
        self._catalan: dict[Fraction, list[Fraction]] = {}
        self._lu: dict[tuple[Fraction, int, int], tuple[list[int], list[int]]] = {}

    def catalan(self, L: Fraction, n_max: int) -> list[Fraction]:
        """c(0..n_max; L) from the Narayana form."""
        values = self._catalan.setdefault(L, [Fraction(1)])
        p, q = L.numerator, L.denominator
        for n in range(len(values), n_max + 1):
            total = sum(
                math.comb(n, k) * math.comb(n, k - 1) // n * p**k * q ** (n - k)
                for k in range(1, n + 1)
            )
            values.append(Fraction(total, q**n))
        return values[: n_max + 1]

    def a(self, L: Fraction, n_max: int) -> list[Fraction]:
        """a_0..a_n_max with a_n = c(n) + c(n+1)."""
        c = self.catalan(L, n_max + 1)
        return [c[n] + c[n + 1] for n in range(n_max + 1)]

    def moment_lu(self, L: Fraction, n: int, prime: int) -> tuple[list[int], list[int]]:
        """Diagonal and superdiagonal of U in (a_{i+j})_{i<n, j<=n} = L U, modulo prime.

        Row k of U is U[Q_k x^j] for the monic orthogonal Q_k, so
        U[k][k] = h_{k+1}/h_k and U[k][k+1]/U[k][k] = alpha_0 + ... + alpha_k.
        Primes below 2^31 keep every product inside int64.
        """
        key = (L, n, prime)
        if key not in self._lu:
            moments = np.array([to_mod(v, prime) for v in self.a(L, 2 * n - 1)], dtype=np.int64)
            u = moments[np.add.outer(np.arange(n), np.arange(n + 1))]
            for k in range(n):
                pivot = int(u[k, k])
                if pivot == 0:
                    raise UnluckyPrime(f"h_{k + 1} vanishes modulo {prime}")
                factors = u[k + 1 :, k] * pow(pivot, -1, prime) % prime
                u[k + 1 :, k + 1 :] = (u[k + 1 :, k + 1 :] - np.outer(factors, u[k, k + 1 :]) % prime) % prime
            self._lu[key] = ([int(u[k, k]) for k in range(n)], [int(u[k, k + 1]) for k in range(n)])
        return self._lu[key]

    def checks(self, L: Fraction, n: int) -> list[tuple[int, list[int], list[int]]]:
        """(prime, diag, sup) for PRIMES_PER_CHECK primes at which elimination succeeds."""
        out = []
        for prime in PRIMES:
            try:
                out.append((prime, *self.moment_lu(L, n, prime)))
            except UnluckyPrime:
                continue
            if len(out) == PRIMES_PER_CHECK:
                return out
        raise UnluckyPrime(f"too few usable primes for L = {L}, n = {n}")

    def minors(self, L: Fraction, n: int) -> list[tuple[int, list[int]]]:
        """(prime, [h_1..h_n mod prime]) pairs."""
        out = []
        for prime, diag, _ in self.checks(L, n):
            h, running = [], 1
            for d in diag:
                running = running * d % prime
                h.append(running)
            out.append((prime, h))
        return out

    def recurrence(self, L: Fraction, n: int) -> list[tuple[int, list[int], list[int]]]:
        """(prime, [alpha_k mod prime], [beta_k mod prime]) for k < n."""
        out = []
        a0 = self.a(L, 0)[0]
        for prime, diag, sup in self.checks(L, n):
            alpha, beta, previous = [], [], 0
            for k in range(n):
                partial = sup[k] * pow(diag[k], -1, prime) % prime
                alpha.append((partial - previous) % prime)
                previous = partial
                beta.append(
                    to_mod(a0, prime) if k == 0 else diag[k] * pow(diag[k - 1], -1, prime) % prime
                )
            out.append((prime, alpha, beta))
        return out


def to_mod(value: Fraction, prime: int) -> int:
    return value.numerator % prime * pow(value.denominator, -1, prime) % prime


def odd_fibonacci(n: int) -> int:
    """F_{2n+1}."""
    prev, cur = 0, 1
    for _ in range(2 * n):
        prev, cur = cur, prev + cur
    return cur


def option(argv: list[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


class Checker:
    """Checks one CLI operation at a time; reference values are cached across calls."""

    def __init__(self) -> None:
        self.ref = Reference()

    def check(self, argv: list[str], stdout: str) -> list[str]:
        try:
            records = [json.loads(line) for line in stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return [f"output is not JSON lines: {exc}"]
        if not records or "command" not in records[-1]:
            return ["no trailing summary object"]
        trailer, rows = records[-1], records[:-1]
        command = argv[0]
        problems = []
        if trailer["command"] != command:
            problems.append(f"summary names command {trailer['command']!r}")
        if trailer.get("status") != "ok":
            problems.append(f"status {trailer.get('status')!r}")
        L = Fraction(option(argv, "--L"))
        problems += getattr(self, "_" + command)(argv, L, rows, trailer)
        return problems

    # -- per command ----------------------------------------------------------

    def _h_values(self, L: Fraction, rows: list[dict], n: int, columns: tuple[str, ...]) -> list[str]:
        """Every listed column of rows n = 1..N against the reference minors (and F_{2n+1} at L = 1)."""
        if [row.get("n") for row in rows] != list(range(1, n + 1)):
            return [f"rows are not n = 1..{n}"]
        problems = []
        reference = self.ref.minors(L, n)
        for row in rows:
            k = row["n"]
            for column in columns:
                if column not in row:
                    problems.append(f"n={k}: no {column} value")
                    continue
                value = Fraction(row[column])
                for prime, h in reference:
                    if to_mod(value, prime) != h[k - 1]:
                        problems.append(f"n={k}: {column} differs from the reference minor mod {prime}")
                        break
                if L == 1 and value != odd_fibonacci(k):
                    problems.append(f"n={k}: {column} is not F_{2 * k + 1}")
        return problems

    def _verify(self, argv, L, rows, trailer) -> list[str]:
        n = int(option(argv, "--n-max", "12"))
        problems = self._h_values(L, rows, n, ("det", "closed", "product", "poly"))
        for row in rows:
            if row.get("L") != str(L) or row.get("agree") is not True:
                problems.append(f"n={row.get('n')}: bad L or agree field")
            if L == 1 and row.get("fibonacci") != str(odd_fibonacci(row["n"])):
                problems.append(f"n={row['n']}: fibonacci column is not F_{2 * row['n'] + 1}")
        return problems

    def _hankel(self, argv, L, rows, trailer) -> list[str]:
        method = option(argv, "--method", "all")
        columns = ("det", "closed", "product", "poly") if method == "all" else (method,)
        return self._h_values(L, rows, int(option(argv, "--n")), columns)

    def _recurrence(self, argv, L, rows, trailer) -> list[str]:
        n = int(option(argv, "--n"))
        if [row.get("k") for row in rows] != list(range(n)):
            return [f"rows are not k = 0..{n - 1}"]
        problems = []
        minors = dict(self.ref.minors(L, n))
        reference = self.ref.recurrence(L, n)
        for suffix in ("", "_moments"):
            alphas = [Fraction(row["alpha" + suffix]) for row in rows]
            betas = [Fraction(row["beta" + suffix]) for row in rows]
            if any(b <= 0 for b in betas):
                problems.append(f"beta{suffix} has a value that is not positive")
            for prime, alpha, beta in reference:
                running = h = 1
                for k in range(n):
                    b = to_mod(betas[k], prime)
                    if to_mod(alphas[k], prime) != alpha[k]:
                        problems.append(f"k={k}: alpha{suffix} differs from the reference mod {prime}")
                    if b != beta[k]:
                        problems.append(f"k={k}: beta{suffix} differs from the reference mod {prime}")
                    running = running * b % prime
                    h = h * running % prime
                    if h != minors[prime][k]:
                        problems.append(f"k={k}: beta{suffix} products miss h_{k + 1} mod {prime}")
        if not all(row.get("equal") is True for row in rows):
            problems.append("chain and moments flagged unequal")
        return problems

    def _series(self, argv, L, rows, trailer) -> list[str]:
        terms = int(option(argv, "--terms"))
        which = option(argv, "--which", "G")
        if [row.get("k") for row in rows] != list(range(terms)):
            return [f"rows are not k = 0..{terms - 1}"]
        if which == "G":
            expected = self.ref.a(L, terms - 1)
            if trailer.get("pole_coefficient") != "0":
                return ["pole coefficient is not 0"]
        elif which == "F":
            expected = [Fraction(0)] + self.ref.a(L, terms - 2)
        else:
            c = self.ref.catalan(L, terms - 2)
            expected = [Fraction(1), -(L + 1)] + [-2 * c[k - 1] for k in range(2, terms)]
        return [
            f"{which}: coefficient {k} differs from the reference"
            for k, (row, want) in enumerate(zip(rows, expected))
            if Fraction(row["coeff"]) != want
        ]

    def _quad(self, argv, L, rows, trailer) -> list[str]:
        moments = int(option(argv, "--moments", "8"))
        tol = float(option(argv, "--tol", "1e-8"))
        if [row.get("n") for row in rows] != list(range(moments + 1)):
            return [f"rows are not n = 0..{moments}"]
        problems = []
        for row, exact in zip(rows, self.ref.a(L, moments)):
            if Fraction(row["exact"]) != exact:
                problems.append(f"n={row['n']}: exact moment differs from the reference")
            rel_err = abs(float(row["quad"]) - float(exact)) / float(exact)
            if not rel_err <= tol:
                problems.append(f"n={row['n']}: quadrature error {rel_err:.3e} over tol {tol:g}")
        return problems
