"""Multi-route verification grid for the Hankel transform values.

Every cell (L, n) computes the transform by the routes of ROUTES, up to four
(determinant, surd closed form, beta-product reconstruction, explicit
polynomial), and records whether they agree exactly. The unit of work is a
row: one L and every n up to n_max. Each route makes one pass over the row
(one Chebyshev pass on the window, one carrier run, one modification chain,
one bracket sum per n), reads no other route's values, and gives the row's
norms nu_k = h_{k+1}/h_k, of O(k) bits where h_k has O(k^2), since
h_n = nu_0 nu_1 ... nu_{n-1} (Gautschi, Orthogonal Polynomials, 2004,
section 2.1.7). verify_row compares the norm rows and builds h once, from
the first route's row; only a route whose norms differ gets an h row of its
own. Reports are sorted by (L, n).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

from .hankel import NonIntegerResult, _minors, closed_norms, poly_norms
from .opoly import chain_norms, window_norms
from .sequences import RationalLike, as_rational

#: Route name -> row function (L, n_max) -> norms [nu_0 .. nu_{n_max-1}], in column order.
ROUTES = {
    "det": window_norms,
    "closed": closed_norms,
    "product": chain_norms,
    "poly": poly_norms,
}


@dataclass
class VerificationReport:
    """Per-(L, n) record: each computed route's value, keyed in ROUTES order."""

    L: Fraction
    n: int
    values: dict[str, Fraction]
    agree: bool


def verify_row(
    L: RationalLike, n_max: int, routes: Collection[str] = ROUTES
) -> list[VerificationReport]:
    """Reports for (L, 1) .. (L, n_max), each route computed once for the row."""
    Lf = as_rational(L)
    if n_max < 1:
        raise ValueError("n must be positive")
    if not routes or not set(routes) <= set(ROUTES):
        raise ValueError(f"routes must be a nonempty subset of {tuple(ROUTES)}, got {tuple(routes)}")
    norm_rows = {name: row(Lf, n_max) for name, row in ROUTES.items() if name in routes}
    first = next(iter(norm_rows.values()))
    shared = _minors(first)
    columns = {name: shared if norms == first else _minors(norms) for name, norms in norm_rows.items()}
    if Lf.denominator == 1:  # then every h_n is an integer, and a fraction falsifies its route
        bad = [(n, v) for h in columns.values() for n, v in enumerate(h, 1) if v.denominator != 1]
        if bad:
            warnings.warn(f"h_{bad[0][0]}({Lf}) = {bad[0][1]} is not an integer", NonIntegerResult, stacklevel=2)
    reports = []
    for n in range(1, n_max + 1):
        values = {route: column[n - 1] for route, column in columns.items()}
        # compared with the first route, not hashed: a Fraction's hash inverts its denominator mod p
        row = list(values.values())
        reports.append(VerificationReport(Lf, n, values, all(value == row[0] for value in row[1:])))
    return reports


def verify_cell(L: RationalLike, n: int) -> VerificationReport:
    """Compute one (L, n) transform value by every route."""
    return verify_row(L, n)[-1]


def verify_grid(L_values: Iterable[RationalLike], n_max: int) -> list[VerificationReport]:
    """All-routes reports for every distinct L and 1 <= n <= n_max, sorted by (L, n)."""
    return [
        report
        for L in sorted({as_rational(L) for L in L_values})
        for report in verify_row(L, n_max)
    ]
