"""Command-line surface: outputs, exit codes, determinism, tolerance wiring."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nwe
from nwe import quantum
from nwe.cli import MAX_IDENTITY, MAX_POLYGON, build_parser, main
from nwe.signaling import MEMBERSHIP_TOL, classical_vertices

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


@pytest.mark.parametrize("command", ["info", "verify", "local", "search-measurement"])
def test_unknown_id_is_rejected_while_parsing(capsys, command):
    code, out, err = run(capsys, command, "nope")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert f"nwe {command}: error: argument id: invalid choice: 'nope'" in err


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


@pytest.mark.parametrize(
    "cid, index, count",
    [("s5", 9, 5), ("q3", 2, 2)],
)
def test_local_measurement_index_past_the_count_is_usage_error(capsys, cid, index, count):
    code, out, err = run(capsys, "local", cid, "--measurements", f"0,{index}")
    assert code == 2
    assert out == ""
    assert err == f"error: measurement index {index} out of range: party 0 has {count} measurements\n"


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


@pytest.mark.parametrize("k, d", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_signal_identity_csv_weights_are_a_certificate(capsys, k, d):
    # the printed weights may differ from an LP's in sub-ulp entries; they must still certify
    code, out, _ = run(capsys, "signal", "--identity", str(k), "--d", str(d), "--csv")
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("weights,")]
    weights = np.array([float(v) for v in line.split(",")[1:]])
    vertices = classical_vertices(k, k, d)
    assert len(weights) == len(vertices)
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= MEMBERSHIP_TOL
    recomposed = sum(w * v.rows for w, v in zip(weights, vertices))
    assert np.max(np.abs(recomposed - np.eye(k))) <= MEMBERSHIP_TOL
    # d >= k: the product weights put exactly 1 on the identity vertex
    assert sorted(weights.tolist()) == [0.0] * (len(weights) - 1) + [1.0]


def test_only_signal_loads_scipy():
    script = "\n".join(
        [
            "import sys, nwe, nwe.cli",
            "assert 'scipy.optimize' not in sys.modules",
            "assert nwe.cli.main(['local', 's5']) == 0",
            "assert 'scipy.optimize' not in sys.modules",
            # every binary channel is inside through d >= 2 symbols: the product weights certify it
            "assert nwe.cli.main(['signal', '--polygon', '5', '--m', '3', '--n', '2', '--d', '2']) == 0",
            "assert 'scipy' not in sys.modules",
            "assert nwe.cli.main(['signal', '--identity', '3', '--d', '2']) == 1",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nwe.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "success = " in done.stdout
    assert "ALL-IN" in done.stdout
    assert "NOT-IN margin 2" in done.stdout
    assert "witness c = 1" in done.stdout


def test_signal_bound_exceeded_is_usage_error(capsys):
    code, _, err = run(capsys, "signal", "--identity", "10", "--d", "4")
    assert code == 2


def test_signal_channel_enumeration_bound_is_usage_error(capsys):
    # one symbol admits only 2 vertices, but 9^8 * 9 channels would be generated
    code, out, err = run(capsys, "signal", "--polygon", "9", "--m", "8", "--d", "1")
    assert code == 2
    assert out == ""
    assert err == "error: 9^8 encodings * 9 decodings exceeds bound 100000\n"


def test_signal_vertex_bound_with_huge_alphabet_is_usage_error(capsys):
    # 10^5000 has too many digits to print, so the message states the powers instead
    code, out, err = run(capsys, "signal", "--identity", "10", "--d", "5000")
    assert (code, out) == (2, "")
    assert err == "error: 5000^10 * 10^5000 exceeds bound 100000\n"


def test_signal_n_defaults_to_binary_and_is_polygon_only(capsys):
    base = ("signal", "--polygon", "5", "--m", "3", "--d", "2")
    assert run(capsys, *base) == run(capsys, *base, "--n", "2")

    code, out, err = run(capsys, "signal", "--identity", "3", "--d", "2", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: --n applies to --polygon only\n"


def test_signal_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "signal", "--d", "2")
    assert code == 2
    assert "error: one of the arguments --polygon --identity is required" in err

    code, out, err = run(capsys, "signal", "--polygon", "5", "--identity", "3", "--m", "2", "--d", "2")
    assert (code, out) == (2, "")
    assert "error: argument --identity: not allowed with argument --polygon" in err


@pytest.mark.parametrize("n", ["1", "3"])
def test_signal_n_other_than_two_is_rejected_while_parsing(capsys, n):
    code, out, err = run(capsys, "signal", "--polygon", "5", "--m", "2", "--n", n, "--d", "2")
    assert (code, out) == (2, "")
    assert f"error: argument --n: invalid choice: {n}" in err


def test_signal_polygon_needs_m(capsys):
    code, out, err = run(capsys, "signal", "--polygon", "5", "--d", "2")
    assert (code, out, err) == (2, "", "error: --polygon needs --m\n")


def test_probability_bound_error_states_the_tolerance(capsys):
    code, out, err = run(capsys, "signal", "--polygon", "5", "--m", "2", "--d", "2", "--eps", "1e-300")
    assert (code, out) == (2, "")
    assert err == "error: inner product -5.551115123125783e-17 outside [0, 1] (tolerance eps=1e-300)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "--polygon", str(MAX_POLYGON + 1)),
        ("signal", "--polygon", str(10**9), "--m", "2", "--d", "2"),
    ],
    ids=" ".join,
)
def test_polygon_above_the_bound_is_rejected_while_parsing(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: argument --polygon: expected a polygon size in [3, {MAX_POLYGON}]" in err


@pytest.mark.parametrize("k", [str(MAX_IDENTITY + 1), "100000"])
def test_identity_above_the_bound_is_rejected_while_parsing(capsys, k):
    code, out, err = run(capsys, "signal", "--identity", k, "--d", "1")
    assert (code, out) == (2, "")
    assert f"error: argument --identity: expected an identity size in [1, {MAX_IDENTITY}]" in err


def test_largest_identity_is_accepted_while_parsing():
    args = build_parser().parse_args(["signal", "--identity", str(MAX_IDENTITY), "--d", "1"])
    assert args.identity == MAX_IDENTITY


def test_largest_polygon_is_accepted(capsys):
    code, out, _ = run(capsys, "info", "--polygon", str(MAX_POLYGON))
    assert code == 0
    assert out.startswith(f"polygon n={MAX_POLYGON}\n")


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


GOLDEN_CLI = Path(__file__).parents[1] / "perfbench" / "golden" / "cli.json"
# The README headline commands recorded in GOLDEN_CLI; "{out}" is the curve CSV path.
GOLDEN_COMMANDS = (
    ("info",),
    ("verify", "s5"),
    ("local", "s5"),
    ("local", "s7"),
    ("local", "s5", "--measurements", "0,1"),
    ("local", "s4", "--leader", "bob"),
    ("local", "s5", "--bias", "0.2"),
    ("search-measurement", "s5"),
    ("signal", "--polygon", "5", "--m", "3", "--n", "2", "--d", "2"),
    ("signal", "--identity", "3", "--d", "2"),
    ("signal", "--polygon", "7", "--m", "4", "--n", "2", "--d", "3"),
    ("curve", "0.1", "0.4", "3", "{out}"),
)


def _golden_key(argv):
    return "_".join(w.lstrip("-").replace(",", "_") for w in argv if w != "{out}")


def test_golden_commands_cover_the_golden_file():
    golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_golden_key(argv) for argv in GOLDEN_COMMANDS)


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
def test_golden_cli_replay(capsys, tmp_path, argv):
    expected = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))[_golden_key(argv)]
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, *(str(out_path) if a == "{out}" else a for a in argv))
    assert code == expected["exit"]
    assert out.replace(str(out_path), "{out}") == expected["stdout"]
    csv = out_path.read_text(encoding="utf-8") if "{out}" in argv else None
    assert csv == expected["csv"]


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
BIAS_VALUES = ("nan", "inf", "-inf", "-0.1", "0", "0.1", "0.25", "0.4", "0.5", "0.6")
STEPS_VALUES = tuple(str(k) for k in (-1, 0, 1, 2, 3, quantum.MAX_CURVE_STEPS + 1, 10**12))
OUT = "<out.csv>"  # stands for a path in a fresh temporary directory
IDS = ("s4", "s5", "s6", "s7", "q3", "nope")
POLYGON_SIZES = st.one_of(st.integers(2, 8), st.sampled_from((MAX_POLYGON - 1, MAX_POLYGON + 1)))
N_FLAGS = ([], [], [], ["--n", "1"], ["--n", "2"], ["--n", "3"])


@st.composite
def cli_arguments(draw):
    eps = ["--eps", draw(st.sampled_from(EPS_VALUES))] if draw(st.booleans()) else []
    command = draw(
        st.sampled_from(
            ("info", "signal-polygon", "signal-identity", "signal-modes", "verify", "local", "curve", "search")
        )
    )
    if command == "info":
        target = ["--polygon", str(draw(POLYGON_SIZES))] if draw(st.booleans()) else [draw(st.sampled_from(IDS))]
        return ["info", *target, *eps]
    n_flag = draw(st.sampled_from(N_FLAGS))
    if command == "signal-polygon":
        n, m, d = draw(POLYGON_SIZES), draw(st.integers(0, 3)), draw(st.integers(0, 3))
        m_flag = ["--m", str(m)] if draw(st.integers(0, 3)) else []  # --m is mostly given
        return ["signal", "--polygon", str(n), *m_flag, "--d", str(d), *n_flag, *eps]
    if command == "signal-identity":
        k, d = draw(st.one_of(st.integers(0, 4), st.just(MAX_IDENTITY + 1))), draw(st.integers(0, 3))
        return ["signal", "--identity", str(k), "--d", str(d), *n_flag, *eps]
    if command == "signal-modes":  # neither or both of --polygon and --identity
        both = ["--polygon", "5", "--identity", "3"] if draw(st.booleans()) else []
        return ["signal", *both, "--m", "2", "--d", "2", *n_flag, *eps]
    if command == "curve":
        pmin, pmax = draw(st.sampled_from(BIAS_VALUES)), draw(st.sampled_from(BIAS_VALUES))
        return ["curve", pmin, pmax, draw(st.sampled_from(STEPS_VALUES)), OUT]
    ensemble = draw(st.sampled_from(IDS))
    if command == "search":
        return ["search-measurement", ensemble, "--budget", draw(st.sampled_from(("-1", "0", "1"))), *eps]
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
@example(["curve", "0.1", "0.4", "1000000000000", OUT])
@example(["search-measurement", "s5", "--budget", "-1"])
@example(["signal", "--polygon", str(10**9), "--m", "2", "--d", "2"])
@example(["signal", "--polygon", "5", "--d", "2"])
@example(["local", "nope"])
def test_exit_code_contract_holds_without_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, "out.csv") if a == OUT else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("error:") == 1
        assert out.getvalue() == ""
    if "--budget" in argv and int(argv[argv.index("--budget") + 1]) < 1 and "nope" not in argv:
        assert "argument --budget" in err.getvalue()  # refused while parsing, not by the search
    if "--polygon" in argv and int(argv[argv.index("--polygon") + 1]) > MAX_POLYGON:
        assert "argument --polygon" in err.getvalue()
    if "--identity" in argv and int(argv[argv.index("--identity") + 1]) > MAX_IDENTITY:
        assert "argument --identity" in err.getvalue()
