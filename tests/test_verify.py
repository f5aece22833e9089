import ast
import importlib
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import hankel_catalan
from hankel_catalan import cli, hankel
from hankel_catalan.hankel import (
    InsufficientTerms,
    NonIntegerResult,
    ZeroLeadingMinor,
    _minors,
    closed_norms,
    h_closed_form,
    hankel_det,
    hankel_minors,
    odd_fibonacci,
)
from hankel_catalan.opoly import chain_coeffs, chain_norms, h_from_products
from hankel_catalan.sequences import SequenceParams, SequenceWindow, a_sequence
from hankel_catalan.series import TruncatedSeries
from hankel_catalan.verify import ROUTES, verify_cell, verify_grid, verify_row

ROW_L = [1, 2, Fraction(5, 2), Fraction(1, 3), 8, Fraction(37, 91)]


@pytest.mark.parametrize("L", ROW_L)
def test_one_elimination_gives_every_leading_minor(L):
    N = 30
    window = a_sequence(L, 2 * N - 2)
    minors = hankel_minors(window, N)
    assert minors == [hankel_det(window, n) for n in range(1, N + 1)]
    assert minors == [h_closed_form(L, n) for n in range(1, N + 1)]


@pytest.mark.parametrize("L", ROW_L)
def test_row_pass_matches_cell_by_cell(L):
    row = verify_row(L, 20)
    assert [report.n for report in row] == list(range(1, 21))
    for report in row:
        cell = verify_cell(L, report.n)
        assert report.values == cell.values
        assert report.agree and cell.agree
        assert list(report.values) == list(ROUTES)


@pytest.mark.parametrize("L", ROW_L)
def test_row_helpers_match_their_single_value_forms(L):
    coeffs, _ = chain_coeffs(L, 12)
    assert _minors(chain_norms(L, 12)) == [h_from_products(coeffs, n) for n in range(1, 13)]
    assert _minors(closed_norms(L, 12)) == [h_closed_form(L, n) for n in range(1, 13)]
    assert chain_norms(L, 0) == closed_norms(L, 0) == hankel_minors(a_sequence(L, 0), 0) == []


def test_vanishing_leading_minor_raises():
    # h_1 = 1, h_2 = 1*1 - 1*1 = 0: elimination cannot pass the second pivot
    window = SequenceWindow(SequenceParams(Fraction(1)), tuple(map(Fraction, (1, 1, 1, 2, 5))))
    assert hankel_minors(window, 1) == [1]
    with pytest.raises(ZeroLeadingMinor):
        hankel_minors(window, 3)
    with pytest.raises(ZeroLeadingMinor):
        hankel_minors(window, 2)


def test_minors_reject_bad_windows():
    with pytest.raises(InsufficientTerms):
        hankel_minors(a_sequence(3, 4), 4)
    # a_1 = 1/9 is no integer times a power of q = 2 for L = 1/2; the integer
    # window dilates it by t = 9 and s = 2 all the same
    window = SequenceWindow(SequenceParams(Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 9), Fraction(1)))
    assert hankel_minors(window, 2) == [hankel_det(window, 1), hankel_det(window, 2)]
    assert hankel_minors(window, 2) == [Fraction(3, 2), Fraction(241, 162)]


def test_row_and_cell_closed_forms_share_the_integrality_warning(monkeypatch):
    def broken_carriers(L, n_max):
        # q^n sigma_n = p Y_n + P_n = 1, so h_n = L^{n(n-1)/2} / 2^{n+1}
        return [1] * (n_max + 1), [0] * (n_max + 1)

    monkeypatch.setattr(hankel, "_carriers", broken_carriers)
    with pytest.warns(NonIntegerResult):
        verify_cell(3, 2)
    with pytest.warns(NonIntegerResult):
        verify_row(3, 2, ("closed",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_row(Fraction(1, 3), 2, ("closed",))  # rational L may give fractions


def test_routes_subset_and_grid_order():
    row = verify_row(Fraction(7, 3), 6, ("closed", "product"))
    assert all(list(report.values) == ["closed", "product"] for report in row)
    assert all(report.agree for report in row)
    grid = verify_grid([3, Fraction(1, 2), 2], 4)
    assert [(report.L, report.n) for report in grid] == [
        (L, n) for L in (Fraction(1, 2), 2, 3) for n in range(1, 5)
    ]
    with pytest.raises(ValueError):
        verify_row(2, 0)
    assert [(report.L, report.n) for report in verify_grid(["2", 2, Fraction(4, 2)], 2)] == [(2, 1), (2, 2)]


@pytest.mark.parametrize("routes", [("bogus",), (), ("det", "bogus")])
def test_row_rejects_unknown_or_empty_routes(routes):
    with pytest.raises(ValueError, match=re.escape(str(tuple(ROUTES)))):
        verify_row(2, 2, routes)


def test_a_route_is_one_table_entry(monkeypatch, capsys):
    # hankel --method is not tried: build_parser is cached, and is built here
    # first so that its choices stay those of the real table
    cli.build_parser()
    monkeypatch.setitem(ROUTES, "twin", ROUTES["closed"])
    row = verify_row(Fraction(37, 91), 8)
    assert all(list(report.values) == ["det", "closed", "product", "poly", "twin"] for report in row)
    assert all(report.agree for report in row)
    assert cli.main(["verify", "--L", "2", "--n-max", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "L,n,det,closed,product,poly,twin,agree"


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("L", [0, -2])
def test_every_route_rejects_a_nonpositive_parameter(route, L):
    with pytest.raises(ValueError, match="parameter L must be positive"):
        verify_row(L, 2, (route,))


def test_odd_fibonacci():
    assert odd_fibonacci(0) == []
    assert odd_fibonacci(6) == [2, 5, 13, 34, 89, 233]


def test_package_exports_names_not_modules():
    from types import ModuleType

    assert "hankel_minors" in hankel_catalan.__all__
    assert "verify_row" in hankel_catalan.__all__
    for name in hankel_catalan.__all__:
        assert not isinstance(getattr(hankel_catalan, name), ModuleType), name
    for module in ("genfunc", "hankel", "opoly", "sequences", "series", "verify", "weight"):
        assert module not in hankel_catalan.__all__


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/spans.py wraps these by name, and a traced run fails on a missing one
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    constants = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "SERIES_METHODS")
    }
    assert constants["FUNCTIONS"] and constants["SERIES_METHODS"]
    for span in constants["FUNCTIONS"]:
        module, attr = span.split(".")
        assert hasattr(importlib.import_module(f"hankel_catalan.{module}"), attr), span
    for attrs in constants["SERIES_METHODS"].values():
        assert all(attr in TruncatedSeries.__dict__ for attr in attrs), attrs
    # the tracer counts terms by the window's params.L; the benchmark self-test imports gen_catalan
    assert a_sequence(2, 3).params.L == 2
    assert "gen_catalan" in hankel_catalan.__all__


@pytest.mark.parametrize(
    "L, N", [(1, 60), (2, 60), (Fraction(5, 2), 60), (Fraction(1, 3), 60), (8, 60), (Fraction(37, 91), 40)]
)
def test_det_column_matches_the_bareiss_oracle(L, N):
    Lf = Fraction(L)
    assert _minors(ROUTES["det"](Lf, N)) == hankel_minors(a_sequence(Lf, 2 * N - 2), N)


@pytest.mark.parametrize("L", ROW_L)
def test_every_norm_row_multiplies_out_to_the_bareiss_minors(L):
    N = 60
    minors = hankel_minors(a_sequence(L, 2 * N - 2), N)
    for name, row in ROUTES.items():
        assert _minors(row(Fraction(L), N)) == minors, name


@pytest.mark.parametrize("route", ROUTES)
def test_a_patched_norm_splits_the_row_at_its_index(monkeypatch, route):
    L, N, k = Fraction(5, 2), 12, 5
    real = ROUTES[route]

    def patched(L, n_max):
        # nu_k doubled and nu_{k+2} halved: h_{k+1} and h_{k+2} differ, h_{k+3} on agree again
        norms = real(L, n_max)
        norms[k] *= 2
        norms[k + 2] /= 2
        return norms

    monkeypatch.setitem(ROUTES, route, patched)
    own = {name: _minors(row(L, N)) for name, row in ROUTES.items()}
    reports = verify_row(L, N)
    assert all(report.agree for report in reports[:k])
    assert not reports[k].agree
    for report in reports:
        assert report.values == {name: h[report.n - 1] for name, h in own.items()}
        assert report.agree == all(h[report.n - 1] == own["det"][report.n - 1] for h in own.values())
    assert [report.agree for report in reports] == [n <= k or n > k + 2 for n in range(1, N + 1)]


def test_every_route_agrees_at_n_160():
    row = verify_row(2, 160)
    assert len(row) == 160 and all(report.agree for report in row)
