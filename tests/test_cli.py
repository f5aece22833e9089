import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hankel_catalan
from hankel_catalan import weight
from hankel_catalan.cli import build_parser, main
from hankel_catalan.opoly import chain_coeffs, stieltjes_from_moments
from hankel_catalan.sequences import a_sequence
from hankel_catalan.verify import ROUTES


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_seq_golden(capsys):
    code, out = run(capsys, ["seq", "--L", "2", "--n", "4"])
    assert code == 0
    values = [line.split()[1] for line in out.splitlines()[1:6]]
    assert values == ["3", "8", "28", "112", "484"]


def test_seq_rational_parameter(capsys):
    code, out = run(capsys, ["seq", "--L", "5/2", "--n", "3", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["a"] == "7/2"
    assert all("/" in row["a"] or row["a"].isdigit() for row in rows[:-1])


def test_seq_single_term(capsys):
    code, out = run(capsys, ["seq", "--L", "1", "--n", "0", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,a", "0,2"]


def test_hankel_all_methods(capsys):
    code, out = run(capsys, ["hankel", "--L", "2", "--n", "5", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows.pop()
    assert summary["status"] == "ok"
    assert len(rows) == 5
    assert rows[-1]["det"] == rows[-1]["closed"] == rows[-1]["product"] == rows[-1]["poly"] == "405504"
    assert all(row["agree"] for row in rows)


def test_hankel_single_route(capsys):
    code, out = run(capsys, ["hankel", "--L", "4", "--n", "3", "--method", "product", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[-1] == "3,8704"
    code, out = run(capsys, ["hankel", "--L", "1", "--n", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].startswith("1,2,2,2,2")


def test_a_mismatched_row_prints_each_route_value(capsys, monkeypatch):
    from hankel_catalan import verify

    closed = verify.h_closed_forms
    monkeypatch.setitem(verify.ROUTES, "closed", lambda L, n: closed(L, n)[:-1] + [Fraction(1, 3)])
    code, out = run(capsys, ["hankel", "--L", "2", "--n", "3", "--format", "json"])
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[1] == {"n": 2, "det": "20", "closed": "20", "product": "20", "poly": "20", "agree": True}
    assert rows[2] == {"n": 3, "det": "272", "closed": "1/3", "product": "272", "poly": "272", "agree": False}
    assert rows[3]["first_mismatch"] == {k: v for k, v in rows[2].items() if k != "agree"} | {"L": "2"}


def test_verify_grid_with_fibonacci_column(capsys):
    code, out = run(capsys, ["verify", "--L", "1", "--n-max", "15", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows.pop()
    assert summary["status"] == "ok"
    assert [row["fibonacci"] for row in rows[:5]] == ["2", "5", "13", "34", "89"]
    assert all(row["closed"] == row["fibonacci"] for row in rows)


def _break_odd_fibonacci(monkeypatch):
    from hankel_catalan import cli

    real = cli.odd_fibonacci
    monkeypatch.setattr(cli, "odd_fibonacci", lambda n_max: real(n_max)[:-1] + [7])


def test_verify_reports_a_fibonacci_mismatch(capsys, monkeypatch):
    _break_odd_fibonacci(monkeypatch)
    code, out = run(capsys, ["verify", "--L", "1,2", "--n-max", "3", "--format", "json"])
    assert code == 2
    trailer = json.loads(out.splitlines()[-1])
    assert trailer["status"] == "mismatch"
    assert trailer["first_mismatch"] == {"detail": "closed form vs Fibonacci"}


def test_a_route_mismatch_is_reported_before_a_fibonacci_mismatch(capsys, monkeypatch):
    from hankel_catalan import verify

    _break_odd_fibonacci(monkeypatch)
    closed = verify.h_closed_forms
    monkeypatch.setitem(verify.ROUTES, "closed", lambda L, n: closed(L, n)[:-1] + [Fraction(1, 3)])
    code, out = run(capsys, ["verify", "--L", "1,2", "--n-max", "3", "--format", "json"])
    assert code == 2
    assert json.loads(out.splitlines()[-1])["first_mismatch"] == {
        "L": "1", "n": 3, "det": "13", "closed": "1/3", "product": "13", "poly": "13"
    }


def test_recurrence_reports_chain_against_moments_mismatch(capsys, monkeypatch):
    from hankel_catalan import cli

    real = cli.window_pairs

    def shifted(L, n_max):
        alpha, beta = real(L, n_max)
        a, b = alpha[1]
        return [alpha[0], (a + b, b), *alpha[2:]], beta

    monkeypatch.setattr(cli, "window_pairs", shifted)
    code, out = run(capsys, ["recurrence", "--L", "4", "--n", "3", "--format", "json"])
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    trailer = rows.pop()
    assert trailer["status"] == "mismatch"
    assert [row["equal"] for row in rows] == [True, False, True]
    assert trailer["first_mismatch"] == {
        "k": 1, **{key: str(value) for key, value in rows[1].items() if key != "k"}
    }
    assert trailer["first_mismatch"]["equal"] == "False"
    code, out = run(capsys, ["recurrence", "--L", "4", "--n", "3"])
    assert code == 2
    last = out.splitlines()[-1]
    assert last.startswith("status=mismatch r_last=-356/357 first_mismatch={'k': 1, 'alpha': ")


@pytest.mark.parametrize(
    "argv, params",
    [
        (["seq", "--L", "4/2", "--n", "3"], {"L": "2", "n": "3"}),
        (["hankel", "--L", "5/2", "--n", "2"], {"L": "5/2", "n": "2", "method": "all"}),
        (["verify", "--L", "3,1/2", "--n-max", "2"], {"L": "3,1/2", "n_max": "2"}),
        (["recurrence", "--L", "2", "--n", "2", "--method", "chain"], {"L": "2", "n": "2", "method": "chain"}),
        (["series", "--L", "2", "--terms", "3"], {"L": "2", "terms": "3", "which": "G"}),
        (["quad", "--L", "2", "--tol", "0.001"], {"L": "2", "moments": "8", "tol": "0.001"}),
    ],
)
def test_trailer_params_hold_every_parsed_option(capsys, argv, params):
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["params"] == params


def test_verify_span_and_rational_list(capsys):
    code, out = run(capsys, ["verify", "--L", "2..4", "--n-max", "5", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()][:-1]
    assert len(rows) == 3 * 5
    l2_closed = [row["closed"] for row in rows if row["L"] == "2"]
    assert l2_closed == ["3", "20", "272", "7424", "405504"]
    code, out = run(capsys, ["verify", "--L", "5/2,7/3", "--n-max", "3", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[-1]["status"] == "ok"
    code, out = run(capsys, ["verify", "--L", "2,4/2", "--n-max", "2", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(row["L"], row["n"]) for row in rows[:-1]] == [("2", 1), ("2", 2)]
    assert rows[-1]["params"] == {"L": "2,2", "n_max": "2"}


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "--L", "1..4", "--n-max", "6", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second  # identical invocations are byte-identical
    assert json.loads(first.splitlines()[-1])["params"] == {"L": "1,2,3,4", "n_max": "6"}


def test_hankel_prints_values_past_the_int_string_limit(capsys):
    code, out = run(capsys, ["hankel", "--L", "8", "--n", "100", "--method", "closed", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows.pop()["status"] == "ok"
    assert len(rows[-1]["closed"]) > 4300


def test_recurrence_both_methods(capsys):
    code, out = run(capsys, ["recurrence", "--L", "4", "--n", "3", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows.pop()
    assert summary["status"] == "ok"
    assert summary["r_last"] == "-356/357"
    assert [row["alpha"] for row in rows] == ["24/5", "323/65", "1104/221"]
    assert [row["beta"] for row in rows] == ["5", "104/25", "680/169"]
    assert [row["r_prev"] for row in rows] == ["-5", "-13/15", "-51/52"]
    assert all(row["equal"] for row in rows)
    assert rows[0]["beta"] == "5"  # total mass L+1


@pytest.mark.parametrize("method", ["chain", "moments", "both"])
@pytest.mark.parametrize("n", [1, 12])
@pytest.mark.parametrize("L", ["1", "4", "5/2", "1/10", "37/91"])
def test_recurrence_text_is_the_library_fractions(capsys, L, n, method):
    # integer values print without /1; numerators of either sign; beta_0 is rational off integer L
    code, out = run(capsys, ["recurrence", "--L", L, "--n", str(n), "--method", method, "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    trailer = rows.pop()
    chain, r = chain_coeffs(L, n)
    moments = stieltjes_from_moments(a_sequence(L, 2 * n - 1), n)
    assert len(rows) == n
    if method == "moments":
        assert "r_last" not in trailer
        assert [(row["alpha"], row["beta"]) for row in rows] == [
            (str(a), str(b)) for a, b in zip(moments.alpha, moments.beta)
        ]
        return
    assert trailer["r_last"] == str(r[n])
    for k, row in enumerate(rows):
        assert (row["alpha"], row["beta"], row["r_prev"]) == (str(chain.alpha[k]), str(chain.beta[k]), str(r[k]))
        if method == "both":
            assert (row["alpha_moments"], row["beta_moments"]) == (str(moments.alpha[k]), str(moments.beta[k]))
            assert row["equal"] is True


def test_series_g_golden(capsys):
    code, out = run(capsys, ["series", "--L", "2", "--terms", "5", "--which", "G", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows.pop()
    assert summary["pole_coefficient"] == "0"
    assert [row["coeff"] for row in rows] == ["3", "8", "28", "112", "484"]


def test_series_rho(capsys):
    code, out = run(capsys, ["series", "--L", "1", "--terms", "4", "--which", "rho", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["k,coeff", "0,1", "1,-2", "2,-2", "3,-4"]


def test_series_f(capsys):
    code, out = run(capsys, ["series", "--L", "2", "--terms", "6", "--which", "F", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()][:-1]
    assert [row["coeff"] for row in rows] == ["0", "3", "8", "28", "112", "484"]


@pytest.mark.parametrize("which, function", [("G", "big_g_series"), ("F", "f_series")])
def test_series_coefficients_must_reproduce_the_sequence(capsys, monkeypatch, which, function):
    from hankel_catalan import cli
    from hankel_catalan.series import TruncatedSeries

    real = getattr(cli, function)
    monkeypatch.setattr(
        cli, function, lambda L, order: real(L, order) + TruncatedSeries([0] * order + [1], order)
    )
    code, out = run(capsys, ["series", "--L", "2", "--terms", "6", "--which", which])
    assert code == 2
    assert out.splitlines()[-1].startswith("status=mismatch")
    assert "first_mismatch={'detail': 'coefficients differ from the sequence'}" in out


def test_series_default_terms(capsys, monkeypatch):
    # no environment variable sets the term count
    monkeypatch.delenv("HF_DEFAULT_ORDER", raising=False)
    for value in (None, "7", "abc"):
        if value is not None:
            monkeypatch.setenv("HF_DEFAULT_ORDER", value)
        code, out = run(capsys, ["series", "--L", "3", "--which", "G", "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 31  # header + default 30


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    argv = ["hankel", "--L", "5/2", "--n", "4", "--format", "json"]
    first = run(capsys, argv)
    with pytest.raises(SystemExit):
        main(["hankel", "--L", "5/2", "--n", "4", "--method", "nope"])
    capsys.readouterr()
    assert run(capsys, argv) == first


def test_quad_ok_and_tolerance_breach(capsys):
    code, out = run(capsys, ["quad", "--L", "4", "--moments", "8", "--tol", "1e-8"])
    assert code == 0
    assert "status=ok" in out
    code, out = run(capsys, ["quad", "--L", "4", "--moments", "8", "--tol", "1e-30"])
    assert code == 2
    assert "status=mismatch" in out


def test_quad_builds_its_nodes_once(monkeypatch, capsys):
    builds = []
    substituted = weight._substituted
    monkeypatch.setattr(weight, "_substituted", lambda *args: builds.append(args) or substituted(*args))
    code, out = run(capsys, ["quad", "--L", "7/3", "--moments", "12", "--format", "json"])
    assert code == 0
    assert len(out.splitlines()) == 14  # 13 moments and the trailer
    assert len(builds) == 1


def test_quad_l1_endpoint_singularity(capsys):
    code, out = run(capsys, ["quad", "--L", "1", "--moments", "6", "--tol", "1e-8", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["exact"] == "2"  # total mass L+1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seq", "--L", "-3", "--n", "2"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["seq", "--L", "x/y", "--n", "2"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:  # the rule takes its node count from --moments
        main(["quad", "--L", "2", "--nodes", "4000"])
    assert info.value.code == 1
    assert main(["hankel", "--L", "2", "--n", "0"]) == 1
    assert main(["series", "--L", "2", "--terms", "0"]) == 1


_NEAR_ONE = st.one_of(
    st.fractions(min_value=Fraction(99, 100), max_value=Fraction(101, 100), max_denominator=10**6),
    st.builds(lambda k, sign: 1 + sign * Fraction(1, 10**k), st.integers(1, 9), st.sampled_from((-1, 1))),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(L=_NEAR_ONE)
@example(L=Fraction(999, 1000))
@example(L=Fraction(10001, 10000))
def test_quad_passes_near_one(capsys, L):
    # near L = 1 moment 0's 1/x part peaks about |1 - sqrt L| wide, finer than the node step
    code, out = run(capsys, ["quad", "--L", str(L), "--format", "json"])
    assert code == 0, out.splitlines()[-1]


@pytest.mark.parametrize("L", ["1/2", "1/10"])
def test_quad_below_one_counts_the_atom_at_zero(capsys, L):
    code, out = run(capsys, ["quad", "--L", L, "--format", "json"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ["quad", "--L", "8", "--moments", "300"],
        ["quad", "--L", "1e400"],
        ["quad", "--L", "1/2", "--tol", "nan"],
        ["quad", "--L", "2", "--tol", "-1"],
        ["quad", "--L", "1e-320"],
        ["quad", "--L", "9e307", "--moments", "0"],
        ["quad", "--L", "1e300", "--moments", "1"],
    ],
)
def test_bad_input_exits_one_with_a_message(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("hankel-catalan: error: ")
    assert len(captured.err) <= 100


def test_quad_checks_the_range_before_building_the_window(capsys, monkeypatch):
    from hankel_catalan import cli

    def unbuilt(L, n_max):
        raise AssertionError("the exact window was built before the range check")

    monkeypatch.setattr(cli, "a_sequence", unbuilt)
    assert main(["quad", "--L", "37/91", "--moments", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "hankel-catalan: error: --L 37/91 --moments 100000 leaves the float64 range\n"


def test_quad_passes_at_100_moments_without_numpy(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails
    code, out = run(capsys, ["quad", "--L", "2", "--moments", "100"])
    assert code == 0, out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--L", "1", "--n-max", "100000000"],
        ["seq", "--L", "2", "--n", "1000000000"],
        ["series", "--L", "2", "--terms", "100000000"],
        ["hankel", "--L", "2", "--n", "300000000", "--method", "closed"],
        ["recurrence", "--L", "2", "--n", "100000000", "--method", "moments"],
    ],
)
def test_a_size_past_memory_is_a_one_line_error(argv):
    def cap():  # runs in the child, before the interpreter starts
        resource.setrlimit(resource.RLIMIT_AS, (300_000_000, 300_000_000))

    src = str(Path(hankel_catalan.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "hankel_catalan.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr == "hankel-catalan: error: not enough memory for these sizes\n"


_NUMBER = st.integers(-3, 15).map(str)
_L = st.one_of(
    st.integers(-2, 12).map(str),
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(0, 12)),
    st.text(max_size=4),
)
_L_RANGE = st.one_of(
    _L,
    st.builds("{}..{}".format, st.integers(-1, 6), st.integers(-1, 6)),
    st.lists(_L, min_size=1, max_size=3).map(",".join),
)
#: Every option of each subcommand with a strategy for its value. The first
#: _REQUIRED[command] of them are required and always given.
_OPTIONS = {
    "seq": [("--L", _L), ("--n", _NUMBER)],
    "hankel": [("--L", _L), ("--n", _NUMBER), ("--method", st.sampled_from([*ROUTES, "all"]))],
    "verify": [("--L", _L_RANGE), ("--n-max", _NUMBER)],
    "recurrence": [("--L", _L), ("--n", _NUMBER), ("--method", st.sampled_from(["chain", "moments", "both"]))],
    "series": [("--L", _L), ("--terms", _NUMBER), ("--which", st.sampled_from(["G", "F", "rho"]))],
    "quad": [
        ("--L", _L),
        ("--moments", st.integers(-2, 300).map(str)),
        ("--tol", st.one_of(st.floats().map(repr), st.sampled_from(["1e-8", "0", "inf", "-nan"]))),
    ],
}
_REQUIRED = {"seq": 2, "hankel": 2, "verify": 1, "recurrence": 2, "series": 1, "quad": 1}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for index, (flag, values) in enumerate(_OPTIONS[command]):
        if index < _REQUIRED[command] or draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "plain"]))]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["series", "--L", "2"])
def test_any_argv_exits_by_the_contract(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)


def test_start_up_leaves_numpy_unimported():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hankel_catalan.cli as cli; "
        "cli.build_parser(); print('numpy' in sys.modules)"
    )
    src = str(Path(hankel_catalan.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


def test_a_reader_that_closes_the_pipe_keeps_the_verdict():
    # 250 KB of output, far past a pipe's buffer: the writes after the reader
    # leaves meet a closed pipe
    src = str(Path(hankel_catalan.__file__).resolve().parents[1])
    argv = ["verify", "--L", "1..8", "--n-max", "40", "--format", "json"]
    child = subprocess.Popen(
        [sys.executable, "-m", "hankel_catalan.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 0
    assert "Traceback" not in err
