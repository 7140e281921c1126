"""Child process that builds one workload and measures it; started by run.py.

Runs with ``src`` on ``PYTHONPATH`` and one BLAS/OpenMP thread.  The last
line of its standard output is one JSON object for run.py to read.

    --setup-only   import nwe, build the inputs, report setup_s
    (default)      also run whole rounds for --seconds and check every output
    --trace 1      record spans for half of --seconds, replay the same rounds
                   untraced, and report per-layer metrics
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()

import nwe  # noqa: E402  (timed as part of set-up)
import nwe.cli  # noqa: E402,F401

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MAX_REASONS = 5


class Timer:
    """Times each step of a round; an op that raises is recorded, not propagated."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.next_id = 0
        self.reset()

    def reset(self):
        self.out, self.errors, self.records = {}, {}, []

    def __call__(self, label: str, fn, *args, op: bool = True):
        self.next_id += 1
        with self.tracer.op(self.next_id, label):
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # counted as a failed op, reported by label
                result = None
                self.errors[label] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.out[label] = result
        self.records.append((label, op, elapsed))
        return result


def measure(wl, timer: Timer, seconds: float | None = None, rounds: int | None = None) -> dict:
    """Run whole rounds: a fixed number, or as many as fit in ``seconds`` (at least one)."""
    tracer = timer.tracer
    traced = tracer.enabled
    start = time.perf_counter()
    by_label, reasons, round_walls = {}, [], []
    attempted = failed = done = 0
    distinct = generated = 0
    while True:
        timer.reset()
        t_round = time.perf_counter()
        wl.run_round(timer)
        tracer.enabled = False
        try:
            bad = wl.check_round(timer.out)
        except Exception as exc:  # e.g. an op raised; then every op of its round fails
            bad = {label: f"check raised {type(exc).__name__}: {exc}" for label, _op, _t in timer.records}
        if hasattr(wl, "dedup"):
            d, g = wl.dedup(timer.out)
            distinct, generated = distinct + d, generated + g
        tracer.enabled = traced
        bad.update(timer.errors)
        round_walls.append(sum(elapsed for _label, _op, elapsed in timer.records))
        for label, is_op, elapsed in timer.records:
            if is_op:
                by_label.setdefault(label, []).append(elapsed)
            if is_op or label in bad:
                attempted += 1
                failed += label in bad
        reasons.extend(f"{label}: {why}" for label, why in bad.items())
        done += 1
        round_s = time.perf_counter() - t_round
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= getattr(wl, "max_rounds", done + 1) or time.perf_counter() - start + round_s > seconds:
            break
    return {
        "rounds": done,
        "wall_s": sum(round_walls),
        "ops_per_s": sum(map(len, by_label.values())) / sum(round_walls),
        "by_label": by_label,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:MAX_REASONS],
        "dedup": (distinct, generated),
    }


def build(name: str, seed: int, tmpdir: Path, inprocess: bool):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, ROOT, dict(os.environ), tmpdir, inprocess=inprocess)
    return cls(seed)


def summary(run: dict) -> dict:
    # Every sample of an op reads as that op's median over the run's rounds.
    # Now and then the shared machine stalls a few ops of one round for tens
    # of milliseconds; as samples of their own, those stalls set the tail of
    # the short certify ops and moved it several-fold from run to run.
    lat_ms = [statistics.median(times) * 1e3 for times in run["by_label"].values() for _ in times]
    tail_ms, tail_pct, beyond = stats.tail(lat_ms)
    return {
        "ops": len(lat_ms),
        "rounds": run["rounds"],
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "reasons": run["reasons"],
    }


def cli_main_ms(run: dict | None, tmpdir: Path) -> tuple:
    """cli.main_ms.<command>: median in-process time per command, checked against the golden run."""
    out, failed = {}, 0
    golden = workloads.load_golden()
    for argv in workloads.CLI_COMMANDS:
        name = workloads.slug(argv)
        if run is not None:
            times = run["by_label"][f"cli.{name}"]
        else:
            out_path = tmpdir / "curve.csv"
            t0 = time.perf_counter()
            result = workloads.run_cli_inprocess(argv, out_path)
            times = [time.perf_counter() - t0]
            failed += workloads.normalise(result, out_path) != golden[name]
        out[f"cli.main_ms.{name}"] = (statistics.median(times) * 1e3, "ms")
    return out, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    if args.trace and not args.setup_only:
        tracer.install()
        tracer.enabled = True
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmpdir = Path(tmp)
        with tracer.op("setup", "setup"):
            wl = build(args.workload, args.seed, tmpdir, inprocess=bool(args.trace))
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # One untimed round first, so that lazy state in numpy and scipy and the
        # heap settle before the measured rounds; the first round of certify is
        # otherwise several times slower in its tail.  Cold CLI commands have
        # nothing to warm, and one pass of them lasts about a run.
        if args.workload != "cli":
            tracer.enabled = False
            wl.run_round(Timer(tracer))
            tracer.enabled = bool(args.trace)

        result = {"environment": environment()}
        if hasattr(wl, "instances"):
            leaves = sorted(n for _label, n in wl.instances())
            result["search_leaves"] = {"instances": len(leaves), "min": leaves[0], "max": leaves[-1]}
        timer = Timer(tracer)
        if not args.trace:
            run = measure(wl, timer, seconds=args.seconds)
            result.update(summary(run))
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            if args.workload == "cli":
                result["per_label_p50_ms"] = {k: statistics.median(v) * 1e3 for k, v in run["by_label"].items()}
        else:
            traced = measure(wl, timer, seconds=args.seconds / 2)
            tracer.enabled = False
            plain = measure(wl, timer, rounds=traced["rounds"])
            layer = tracing.function_metrics(tracer.spans)
            main_ms, probe_failed = cli_main_ms(plain if args.workload == "cli" else None, tmpdir)
            layer.update(main_ms)
            distinct, generated = traced["dedup"]
            layer["signaling.dedup_ratio"] = (distinct / generated if generated else 0.0, "ratio")
            layer["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
            result.update(summary(traced))
            result["attempted"] += plain["attempted"] + (0 if args.workload == "cli" else len(workloads.CLI_COMMANDS))
            result["failed"] += plain["failed"] + probe_failed
            result["layer"] = layer
            path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(path)
            result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
