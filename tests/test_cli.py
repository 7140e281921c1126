"""Command-line surface: outputs, exit codes, determinism, tolerance wiring."""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe.cli import main

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pentagon_passes(capsys):
    code, out, _ = run(capsys, "verify", "s5")
    assert code == 0
    assert "verify s5: PASS" in out
    assert "confusion matrix" in out


@pytest.mark.parametrize("cid", ["s6", "s7"])
def test_verify_other_catalogs_pass(capsys, cid):
    code, out, _ = run(capsys, "verify", cid)
    assert code == 0
    assert f"verify {cid}: PASS" in out


def test_verify_uncataloged_id_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "s4")
    assert code == 2
    assert "no cataloged" in err


def test_verify_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2


def test_local_pentagon_full_and_restricted(capsys):
    code, out, _ = run(capsys, "local", "s5")
    assert code == 0
    assert f"success = {format((7 + GOLDEN_CONJUGATE) / 8, '.10g')}" in out
    assert "tree: (p0" in out

    code, out, _ = run(capsys, "local", "s5", "--measurements", "0,1")
    assert code == 0
    assert "success = 0.875" in out
    assert "delta = 0.125" in out


def test_local_squit_leaders(capsys):
    code, out, _ = run(capsys, "local", "s4", "--leader", "alice")
    assert code == 0
    assert "success = 1" in out

    code, out, _ = run(capsys, "local", "s4", "--leader", "bob")
    assert code == 0
    assert "success = 0.75" in out


def test_local_q3_with_basis_measurements(capsys):
    code, out, _ = run(capsys, "local", "q3")
    assert code == 0
    assert "success = 0.875" in out


def test_local_invalid_bias_is_usage_error(capsys):
    code, _, err = run(capsys, "local", "s5", "--bias", "0.7")
    assert code == 2
    assert "bias" in err


def test_local_invalid_leader_is_usage_error(capsys):
    code, _, err = run(capsys, "local", "s5", "--leader", "dave")
    assert code == 2


def test_local_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "local", "s5", "--bias", "0.2")
    _, second, _ = run(capsys, "local", "s5", "--bias", "0.2")
    assert first == second


def test_curve_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "curve", "0.1", "0.4", "4", str(out_path))
    assert code == 0
    assert "wrote 4 rows" in out
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "p,delta_poly_a,delta_poly_b,delta_poly,delta_qt_a,delta_qt_b,delta_qt"
    assert len(lines) == 5
    assert "\r" not in text

    other = tmp_path / "curve2.csv"
    code2, out2, _ = run(capsys, "curve", "0.1", "0.4", "4", str(other))
    assert out2.splitlines()[-1] == out.splitlines()[-1]  # identical gap summary
    assert other.read_bytes() == out_path.read_bytes()


def test_curve_invalid_range_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "0.4", "0.1", "4", str(tmp_path / "x.csv"))
    assert code == 2


def test_curve_unwritable_path_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "0.1", "0.4", "4", str(tmp_path / "nodir" / "x.csv"))
    assert code == 2
    assert "cannot write" in err


def test_signal_polygon_all_in(capsys):
    code, out, _ = run(capsys, "signal", "--polygon", "5", "--m", "3", "--n", "2", "--d", "2")
    assert code == 0
    assert "ALL-IN" in out


def test_signal_identity_three_not_in(capsys):
    code, out, _ = run(capsys, "signal", "--identity", "3", "--d", "2")
    assert code == 1
    assert "NOT-IN" in out
    assert "witness" in out


def test_signal_identity_two_in(capsys):
    code, out, _ = run(capsys, "signal", "--identity", "2", "--d", "2")
    assert code == 0
    assert "IN" in out


def test_signal_identity_csv_weights(capsys):
    code, out, _ = run(capsys, "signal", "--identity", "2", "--d", "2", "--csv")
    assert code == 0
    assert "weights," in out


def test_signal_bound_exceeded_is_usage_error(capsys):
    code, _, err = run(capsys, "signal", "--identity", "10", "--d", "4")
    assert code == 2


def test_signal_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "signal", "--d", "2")
    assert code == 2


def test_search_measurement_pentagon(capsys):
    code, out, _ = run(capsys, "search-measurement", "s5")
    assert code == 0
    assert "8 effects" in out
    assert "E0 = e0 x e0 x e0" in out


def test_search_measurement_budget_error(capsys):
    code, _, err = run(capsys, "search-measurement", "s5", "--budget", "2")
    assert code == 2


def test_info_lists_catalog(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    for cid in ("s4", "s5", "s6", "s7", "q3"):
        assert cid in out


def test_info_polygon_details(capsys):
    code, out, _ = run(capsys, "info", "--polygon", "5")
    assert code == 0
    assert "e0" in out and "w0" in out and "extremal measurements" in out


def test_info_ensemble_details(capsys):
    code, out, _ = run(capsys, "info", "s5")
    assert code == 0
    assert "state 0: w0 x w0 x w0" in out


def test_eps_flag_tightens_verification(capsys):
    # the pentagon identity holds only to machine precision, so an absurdly
    # tight tolerance must flip the verdict
    code, out, _ = run(capsys, "verify", "s5", "--eps", "1e-18")
    assert code == 1
    assert "verify s5: FAIL" in out


def test_eps_env_var_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("NWE_EPS", "1e-18")
    code, out, _ = run(capsys, "verify", "s5")
    assert code == 1

    code, out, _ = run(capsys, "verify", "s5", "--eps", "1e-9")
    assert code == 0

    monkeypatch.setenv("NWE_EPS", "not-a-number")
    code, _, err = run(capsys, "verify", "s5")
    assert code == 2


# Full stdout of the commands whose output the catalog tables now produce.
PINNED_STDOUT = {
    ("info", "q3"): (
        "ensemble q3: 8 states, 3 parties\n"
        "  state 0: a=0 x a=0 x a=0   prior 0.125\n"
        "  state 1: a=3.141592654 x a=3.141592654 x a=3.141592654   prior 0.125\n"
        "  state 2: a=1.570796327 x a=0 x a=3.141592654   prior 0.125\n"
        "  state 3: a=4.71238898 x a=0 x a=3.141592654   prior 0.125\n"
        "  state 4: a=0 x a=3.141592654 x a=1.570796327   prior 0.125\n"
        "  state 5: a=0 x a=3.141592654 x a=4.71238898   prior 0.125\n"
        "  state 6: a=3.141592654 x a=1.570796327 x a=0   prior 0.125\n"
        "  state 7: a=3.141592654 x a=4.71238898 x a=0   prior 0.125\n"
    ),
    ("info", "s5"): (
        "ensemble s5: 8 states, 3 parties\n"
        "  state 0: w0 x w0 x w0   prior 0.125\n"
        "  state 1: w2 x w2 x w2   prior 0.125\n"
        "  state 2: w1 x w0 x w2   prior 0.125\n"
        "  state 3: w4 x w0 x w2   prior 0.125\n"
        "  state 4: w0 x w2 x w1   prior 0.125\n"
        "  state 5: w0 x w2 x w4   prior 0.125\n"
        "  state 6: w2 x w1 x w0   prior 0.125\n"
        "  state 7: w2 x w4 x w0   prior 0.125\n"
    ),
    ("local", "q3"): (
        "ensemble q3 (8 states, 3 parties), priors uniform\n"
        "leader: free\n"
        "success = 0.875\n"
        "delta = 0.125\n"
        "tree: (p0 m0 (p1 m0 (p2 m0 g0 g2) (p2 m1 g4 g5)) (p2 m0 (p1 m1 g6 g7) (p1 m0 g2 g1)))\n"
    ),
    ("local", "q3", "--measurements", "1"): (
        "ensemble q3 (8 states, 3 parties), priors uniform\n"
        "leader: free\n"
        "success = 0.25\n"
        "delta = 0.75\n"
        "tree: (p0 m0 (p1 m0 (p2 m0 g2 g2) (p2 m0 g4 g5)) (p1 m0 (p2 m0 g3 g3) (p2 m0 g7 g3)))\n"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_pinned_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == PINNED_STDOUT[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "--polygon", "2"),
        ("signal", "--polygon", "5", "--m", "0", "--d", "2"),
        ("signal", "--identity", "0", "--d", "2"),
        ("signal", "--identity", "3", "--d", "0"),
        ("signal", "--polygon", "5", "--m", "2", "--d", "2", "--eps", "1e-300"),
        ("verify", "s5", "--eps", "-1"),
        ("verify", "s5", "--eps", "nan"),
        ("local", "s5", "--measurements", "-1"),
        ("local", "s5", "--eps", "1e-3"),
        ("curve", "0.1", "0.4", "4", "x.csv", "--eps", "5"),
    ],
    ids=" ".join,
)
def test_out_of_range_arguments_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert out == ""


EPS_VALUES = ("-1", "0", "1e-300", "1e-9", "nan")


@st.composite
def cli_arguments(draw):
    eps = ["--eps", draw(st.sampled_from(EPS_VALUES))] if draw(st.booleans()) else []
    command = draw(st.sampled_from(("info", "signal-polygon", "signal-identity", "verify", "local")))
    if command == "info":
        return ["info", "--polygon", str(draw(st.integers(2, 8))), *eps]
    if command == "signal-polygon":
        n, m, d = draw(st.integers(2, 8)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return ["signal", "--polygon", str(n), "--m", str(m), "--d", str(d), *eps]
    if command == "signal-identity":
        k, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        return ["signal", "--identity", str(k), "--d", str(d), *eps]
    ensemble = draw(st.sampled_from(("s4", "s5", "s6", "s7", "q3")))
    if command == "verify":
        return ["verify", ensemble, *eps]
    extra = []
    if draw(st.booleans()):
        extra += ["--leader", draw(st.sampled_from(("alice", "bob", "charlie", "dave")))]
    if draw(st.booleans()):
        indices = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
        extra += ["--measurements", ",".join(map(str, indices))]
    return ["local", ensemble, *extra]


@settings(max_examples=60, deadline=None)
@given(cli_arguments())
def test_exit_code_contract_holds_without_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
