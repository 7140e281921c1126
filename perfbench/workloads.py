"""The four workloads: seeded inputs, their ops, and the checks on every output.

A workload builds one round from a seed (that is the set-up ``setup_s``
times) and the run repeats it.  A round is a fixed mix of steps; a step is
either an op, which counts in ``attempted`` and in the latency statistics,
or other timed work such as building channels, which counts in the timed
wall clock only.  ``run_round`` drives the steps through a ``timer`` the
runner supplies, and ``check_round`` returns the labels of the ops whose
outputs are wrong, with the reason.

Every call into the library goes through a module attribute
(``discrimination.optimal_local``, never a bare imported name) so that the
tracing wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from nwe import catalog, composition, discrimination, quantum, signaling, systems

import oracle
from tracing import search_leaves

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
GOLDEN_DISTINCT = HERE / "golden" / "distinct.json"

G = (math.sqrt(5.0) - 1.0) / 2.0
# Exact optima of the engine (not the paper's 1/8 gap), with their tolerance.
PINNED = {
    ("s5", "free"): ((7.0 + G) / 8.0, 1e-12),
    ("s6", "free"): (15.0 / 16.0, 1e-12),
    ("s7", "free"): (0.9306302335, 1e-10),
    ("s5", "m01"): (7.0 / 8.0, 1e-12),
    ("s4", "leader0"): (1.0, 1e-12),
    ("s4", "leader1"): (0.75, 1e-12),
}
VALUE_TOL = 1e-12
QT_TOL = 1e-9
WEIGHT_TOL = 1e-7
WITNESS_TOL = 1e-9

# README headline commands; "{out}" is the curve CSV path in a temporary directory.
CLI_COMMANDS = (
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
CLI_TIMEOUT_S = 120
DEDUP_LINE = re.compile(r"distinct channels: (\d+) \(of (\d+) generated\)")


def slug(argv) -> str:
    """Metric-safe name of a CLI command, e.g. local_s5_measurements_0_1."""
    words = [w.lstrip("-").replace(",", "_") for w in argv if w != "{out}"]
    return "_".join(words)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("-".join(str(t) for t in (seed, *tags)))


# ---------------------------------------------------------------- solve


def random_instance(rng: random.Random, arity: int, k_range, m_range):
    """Seeded polygon product ensemble and measurement subset within the engine's bounds."""
    if not 2 <= arity <= discrimination.MAX_ARITY:
        raise ValueError(f"arity {arity} outside 2..{discrimination.MAX_ARITY}")
    parts = tuple(systems.make_polygon(rng.randint(5, 9)) for _ in range(arity))
    k = rng.randint(*k_range)
    picked = set()
    while len(picked) < k:
        picked.add(tuple(rng.randrange(p.n) for p in parts))
    states = tuple(
        composition.ProductState(tuple(p.pure_state(i) for p, i in zip(parts, idx)))
        for idx in sorted(picked)
    )
    w = np.array([rng.random() + 0.1 for _ in range(k)])
    ens = catalog.NamedEnsemble(f"random{arity}", composition.CompositeSystem(parts), states, w / w.sum())
    per_party = []
    for p in parts:
        available = len(p.extremal_measurements)
        m = min(rng.randint(*m_range), available, discrimination.MAX_MEASUREMENTS_PER_PARTY)
        per_party.append(tuple(p.measurement(i) for i in sorted(rng.sample(range(available), m))))
    return ens, discrimination.SearchConfig(tuple(per_party))


# (arity, states, measurements per party, how many per round).  Four
# parties with three measurements each keep every solve well under 1 s.
RANDOM_SHAPES = (
    (2, (3, 6), (2, 4), 2),
    (3, (6, 10), (4, 4), 4),
    (4, (8, 10), (3, 3), 2),
)


class Solve:
    """Warm in-process solves of catalog variants and seeded random ensembles, plus evaluations."""

    def __init__(self, seed: int):
        rng = _rng(seed, "solve")
        solves = []  # (label, ensemble, config, leader, catalog key or None)
        for cid in ("s4", "s5", "s6", "s7"):
            ens = catalog.load(cid)
            cfg = discrimination.SearchConfig.for_ensemble(ens)
            solves.append((f"{cid}.free", ens, cfg, None, (cid, "free")))
            leaders = (0, 1) if cid == "s4" else (rng.randrange(ens.arity),)
            for leader in leaders:
                solves.append((f"{cid}.leader{leader}", ens, cfg, leader, (cid, f"leader{leader}")))
            fixed = discrimination.SearchConfig(cfg.measurements, adaptive=False)
            solves.append((f"{cid}.fixed", ens, fixed, None, (cid, "fixed")))
            m01 = discrimination.SearchConfig.for_ensemble(ens, indices=(0, 1))
            solves.append((f"{cid}.m01", ens, m01, None, (cid, "m01")))
            if cid != "s4":
                p = round(rng.uniform(0.02, 0.48), 6)
                biased = catalog.load(cid, catalog.biased(p))
                solves.append((f"{cid}.biased", biased, cfg, None, (cid, "biased")))
        for arity, k_range, m_range, count in RANDOM_SHAPES:
            for j in range(count):
                ens, cfg = random_instance(rng, arity, k_range, m_range)
                solves.append((f"random{arity}.{j}", ens, cfg, None, None))
        rng.shuffle(solves)
        self.solves = solves
        self.measured = [(cid, catalog.load(cid), catalog.load_measurement(cid)) for cid in ("s5", "s6", "s7")]

    def instances(self):
        """(label, search_leaves) of every generated solve, computed from its config."""
        for label, ens, cfg, leader, _key in self.solves:
            outcomes = tuple(tuple(len(m) for m in per) for per in cfg.measurements)
            yield label, search_leaves(outcomes, cfg.adaptive, leader, ens.arity)

    def run_round(self, timer) -> None:
        for label, ens, cfg, leader, _key in self.solves:
            timer(f"solve.{label}", _solve, ens, cfg, leader)
        for label, ens, _cfg, _leader, _key in self.solves:
            solved = timer.out.get(f"solve.{label}")
            if solved is not None:
                timer(f"eval.{label}", discrimination.eval_tree, solved[0].tree, ens)
        for cid, ens, measurement in self.measured:
            timer(f"confusion.{cid}", _confusion, ens, measurement)

    def check_round(self, out: dict) -> dict:
        bad = {}
        free = {}
        for label, ens, cfg, leader, key in self.solves:
            report, text = out[f"solve.{label}"]
            s = report.success
            if not (float(np.max(ens.priors)) - VALUE_TOL <= s <= 1.0 + VALUE_TOL):
                bad[f"solve.{label}"] = f"success {s!r} outside [max prior, 1]"
            elif abs(report.delta - (1.0 - s)) > VALUE_TOL or not text:
                bad[f"solve.{label}"] = "delta or tree text inconsistent"
            elif key in PINNED and abs(s - PINNED[key][0]) > PINNED[key][1]:
                bad[f"solve.{label}"] = f"success {s!r} != pinned {PINNED[key][0]!r}"
            elif ens.arity == 2 and key is None:
                want = oracle.two_party_optimum(ens.priors, oracle.likelihoods(ens, cfg.measurements))
                if abs(s - want) > VALUE_TOL:
                    bad[f"solve.{label}"] = f"success {s!r} != two-party oracle {want!r}"
            if key is not None and key[1] == "free":
                free[key[0]] = s
            evaluated = out[f"eval.{label}"]
            if abs(evaluated - s) > VALUE_TOL:
                bad[f"eval.{label}"] = f"eval_tree {evaluated!r} != solve {s!r}"
        # Restricting the protocol class can never beat the free optimum.
        for label, _ens, _cfg, _leader, key in self.solves:
            if key is not None and key[1] not in ("free", "biased"):
                s = out[f"solve.{label}"][0].success
                if s > free[key[0]] + VALUE_TOL:
                    bad[f"solve.{label}"] = f"restricted success {s!r} beats free {free[key[0]]!r}"
        for cid, ens, _m in self.measured:
            conf, complete = out[f"confusion.{cid}"]
            if not complete or float(np.max(np.abs(conf - np.eye(ens.size)))) > systems.DEFAULT_EPS:
                bad[f"confusion.{cid}"] = "cataloged measurement does not discriminate"
        return bad


def _solve(ens, cfg, leader):
    report = discrimination.optimal_local(ens, cfg, leader)
    return report, discrimination.tree_to_text(report.tree)


def _confusion(ens, measurement):
    return (
        discrimination.confusion_matrix(measurement, ens),
        composition.check_complete(ens.composite, measurement),
    )


# ---------------------------------------------------------------- curve

# Grid lengths of one round.  The odd multiset keeps the median op inside
# the three-point cluster and leaves a four-point op for the tail.
CURVE_STEPS = (2, 3, 3, 3, 4)


class Curve:
    """Warm repeated quantum.curve calls on short seeded bias grids."""

    def __init__(self, seed: int):
        rng = _rng(seed, "curve")
        steps = list(CURVE_STEPS)
        rng.shuffle(steps)
        self.grids = [(round(rng.uniform(0.01, 0.2), 6), round(rng.uniform(0.3, 0.49), 6), n) for n in steps]
        # Each round recomputes one polygon point directly: (grid, position in the grid).
        self.sample = (rng.randrange(len(self.grids)), rng.random())

    def run_round(self, timer) -> None:
        for j, (lo, hi, steps) in enumerate(self.grids):
            timer(f"curve.{j}", _curve, lo, hi, steps)

    def check_round(self, out: dict) -> dict:
        bad = {}
        for j, (lo, hi, steps) in enumerate(self.grids):
            points, csv = out[f"curve.{j}"]
            why = _check_curve(points, csv, lo, hi, steps)
            if why is None and j == self.sample[0]:
                why = _check_curve_point(points[int(self.sample[1] * steps)])
            if why:
                bad[f"curve.{j}"] = why
        return bad


def _curve(lo, hi, steps):
    points = quantum.curve(lo, hi, steps)
    return points, quantum.curve_csv(points)


def _check_curve(points, csv, lo, hi, steps):
    if len(points) != steps or csv.count("\n") != steps + 1 or not csv.startswith(quantum.CSV_HEADER):
        return "wrong number of points or CSV rows"
    for pt, p in zip(points, np.linspace(lo, hi, steps)):
        if pt.p != float(p):
            return f"grid point {pt.p!r} != {float(p)!r}"
        qa, qb = quantum.qt_delta_closed(pt.p, "a"), quantum.qt_delta_closed(pt.p, "b")
        if abs(pt.delta_qt_a - qa) > QT_TOL or abs(pt.delta_qt_b - qb) > QT_TOL:
            return f"qubit deltas at p={pt.p!r} differ from the closed form"
        if pt.delta_qt != min(pt.delta_qt_a, pt.delta_qt_b) or pt.delta_poly != min(
            pt.delta_poly_a, pt.delta_poly_b
        ):
            return f"combined delta at p={pt.p!r} is not the minimum"
    return None


def _check_curve_point(pt):
    """Recompute one polygon point with direct forced-leader solves."""
    ens = catalog.load("s5", catalog.biased(pt.p))
    cfg = discrimination.SearchConfig.for_ensemble(ens)
    a = 1.0 - discrimination.optimal_local(ens, cfg, 0).success
    b = min(1.0 - discrimination.optimal_local(ens, cfg, leader).success for leader in (1, 2))
    if abs(a - pt.delta_poly_a) > VALUE_TOL or abs(b - pt.delta_poly_b) > VALUE_TOL:
        return f"polygon deltas at p={pt.p!r} differ from direct optimal_local"
    return None


# ---------------------------------------------------------------- certify

IDENTITY_CASES = ((2, 1), (3, 1), (3, 2))
# Every (polygon, encodings) pair the certify cases below can draw.
CERTIFY_POLYGONS = ((7, 4), (5, 3), (6, 3), *((n, 2) for n in range(5, 10)))


class Certify:
    """Seeded (n, m, d) polygon certifications, always with (7, 4, 3), plus identities."""

    def __init__(self, seed: int):
        rng = _rng(seed, "certify")
        # (5, 3, 1) puts the same 24 outside channels, two LPs each, in
        # every round; they are the slow end of the op latencies.
        self.cases = [
            (7, 4, 3),
            (rng.choice((5, 6)), 3, rng.choice((2, 3))),
            (5, 3, 1),
            (rng.randint(5, 9), 2, 2),
        ]
        rng.shuffle(self.cases)
        for n, m, d in self.cases:
            if d**m * 2**d > signaling.VERTEX_ENUMERATION_BOUND:
                raise ValueError(f"case {(n, m, d)} exceeds the vertex enumeration bound")
        self.identities = rng.sample(IDENTITY_CASES, len(IDENTITY_CASES))
        self.polygons = {n: systems.make_polygon(n) for n, _m, _d in self.cases}
        with open(GOLDEN_DISTINCT, encoding="utf-8") as fh:
            self.distinct = json.load(fh)

    def run_round(self, timer) -> None:
        for n, m, d in self.cases:
            case = f"{n}.{m}.{d}"
            built = timer(f"build.{case}", _build_channels, self.polygons[n], m, op=False)
            vertices = timer(f"vertices.{case}", signaling.classical_vertices, m, 2, d, op=False)
            if built is None or vertices is None:
                continue
            for j, ch in enumerate(built[0]):
                timer(f"member.{case}.{j}", signaling.in_classical_polytope, ch, d, vertices)
        for k, d in self.identities:
            timer(f"identity.{k}.{d}", signaling.in_classical_polytope, signaling.Channel(np.eye(k)), d)

    def dedup(self, out: dict) -> tuple:
        """(distinct, generated) channels over the builds of one round."""
        built = [v for key, v in out.items() if key.startswith("build.") and v is not None]
        return sum(len(b[0]) for b in built), sum(b[1] for b in built)

    def check_round(self, out: dict) -> dict:
        bad = {}
        for n, m, d in self.cases:
            case = f"{n}.{m}.{d}"
            channels, _generated = out[f"build.{case}"]
            want = self.distinct[f"{n}.{m}"]
            if len(channels) != want:
                bad[f"build.{case}"] = f"{len(channels)} distinct channels, the CLI reports {want}"
            vertices = out[f"vertices.{case}"]
            for j, ch in enumerate(channels):
                # Two outputs fit through any d >= 2 symbols; d = 1 admits constant channels only.
                expect = d >= 2 or bool(np.allclose(ch.rows, ch.rows[0], atol=1e-9))
                why = _check_membership(ch, out[f"member.{case}.{j}"], vertices, expect)
                if why:
                    bad[f"member.{case}.{j}"] = why
        for k, d in self.identities:
            ch = signaling.Channel(np.eye(k))
            why = _check_membership(ch, out[f"identity.{k}.{d}"], signaling.classical_vertices(k, k, d), False)
            if why:
                bad[f"identity.{k}.{d}"] = why
        return bad


def _build_channels(sysn, m: int) -> tuple:
    """Every encoding/decoding channel of one polygon, deduplicated as the CLI does."""
    distinct, seen, generated = [], set(), 0
    for encoding in itertools.product(range(sysn.n), repeat=m):
        states = [sysn.pure_state(i) for i in encoding]
        for mi in range(len(sysn.extremal_measurements)):
            ch = signaling.gpt_channel(sysn, states, sysn.measurement(mi))
            generated += 1
            key = np.round(ch.rows, 12).tobytes()
            if key not in seen:
                seen.add(key)
                distinct.append(ch)
    return distinct, generated


def _check_membership(ch, result, vertices, expect_inside: bool):
    if result.inside != expect_inside:
        return f"inside={result.inside}, expected {expect_inside}"
    V = np.array([v.rows.ravel() for v in vertices])
    x = ch.rows.ravel()
    if result.inside:
        w = result.weights
        if w.min() < -WEIGHT_TOL or abs(w.sum() - 1.0) > WEIGHT_TOL or np.max(np.abs(V.T @ w - x)) > WEIGHT_TOL:
            return "membership weights do not recompose the channel"
        return None
    h, c = result.witness
    h = np.asarray(h).ravel()
    if float(h @ x) - c <= WITNESS_TOL or float(np.max(V @ h)) > c + WITNESS_TOL:
        return "witness does not separate the channel from every vertex"
    return None


# ---------------------------------------------------------------- cli


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli_subprocess(argv, root: Path, env: dict, out_path: Path) -> tuple:
    """Cold ``python -m nwe.cli`` run: (exit code, stdout, CSV text or None)."""
    args = [str(out_path) if a == "{out}" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "nwe.cli", *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, _read_csv(argv, out_path)


def run_cli_inprocess(argv, out_path: Path) -> tuple:
    """In-process ``nwe.cli.main`` with stdout captured: (exit code, stdout, CSV text or None)."""
    import nwe.cli

    args = [str(out_path) if a == "{out}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = nwe.cli.main(args)
    return code, buf.getvalue(), _read_csv(argv, out_path)


def _read_csv(argv, out_path: Path):
    if "{out}" not in argv:
        return None
    text = out_path.read_text(encoding="utf-8")
    out_path.unlink()
    return text


def normalise(result: tuple, out_path: Path) -> dict:
    code, stdout, csv = result
    return {"exit": code, "stdout": stdout.replace(str(out_path), "{out}"), "csv": csv}


class Cli:
    """README headline commands, one op per command, in a seeded order."""

    max_rounds = 1  # one pass is about as long as a run; a second would double it

    def __init__(self, seed: int, root: Path, env: dict, tmpdir: Path, inprocess: bool = False):
        self.golden = load_golden()
        self.root, self.env, self.inprocess = root, env, inprocess
        self.out_path = tmpdir / "curve.csv"
        self.order = list(CLI_COMMANDS)
        _rng(seed, "cli").shuffle(self.order)

    def run_command(self, argv):
        if self.inprocess:
            return run_cli_inprocess(argv, self.out_path)
        return run_cli_subprocess(argv, self.root, self.env, self.out_path)

    def run_round(self, timer) -> None:
        for argv in self.order:
            timer(f"cli.{slug(argv)}", self.run_command, argv)

    def dedup(self, out: dict) -> tuple:
        """(distinct, generated) channels as the signal commands of one round report them."""
        distinct = generated = 0
        for result in out.values():
            found = result and DEDUP_LINE.search(result[1])
            if found:
                distinct, generated = distinct + int(found[1]), generated + int(found[2])
        return distinct, generated

    def check_round(self, out: dict) -> dict:
        bad = {}
        for argv in self.order:
            name = slug(argv)
            got = normalise(out[f"cli.{name}"], self.out_path)
            if got != self.golden[name]:
                bad[f"cli.{name}"] = f"stdout, CSV or exit code {got['exit']} differs from the golden run"
        return bad


WORKLOADS = {"cli": Cli, "solve": Solve, "curve": Curve, "certify": Certify}
