"""Multi-route verification grid for the Hankel transform values.

Every cell (L, n) computes the transform by the routes of ROUTES, up to four
(determinant, surd closed form, beta-product reconstruction, explicit
polynomial), and records whether they agree exactly. The determinant is the
product of the norms U[Q_k^2] of the Chebyshev algorithm on the window a_k,
read as the integers q^{k+1} a_k for L = p/q, which is the structured LDL^T
factorization of the Hankel matrix. The unit of work is a row: one L and
every n up to n_max. Each route makes one pass over the row (one window and
one Chebyshev pass, one carrier run, one modification chain on the carriers
psihat alone) and no route reads another's values. The det and product
routes run on integer kernels and build a Fraction only for each running
product h_n. Reports are sorted by (L, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

from .hankel import h_closed_forms, h_polynomial_forms
from .opoly import chain_products, window_minors
from .sequences import RationalLike, as_rational

#: Route name -> row function (L, n_max) -> [h_1 .. h_n_max], in column order.
ROUTES = {
    "det": window_minors,
    "closed": h_closed_forms,
    "product": chain_products,
    "poly": h_polynomial_forms,
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
    columns = {name: row(Lf, n_max) for name, row in ROUTES.items() if name in routes}
    reports = []
    for n in range(1, n_max + 1):
        values = {route: column[n - 1] for route, column in columns.items()}
        # Compared with the first route, not hashed: a Fraction's hash takes a
        # modular inverse of its denominator.
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
