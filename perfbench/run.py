"""nwe benchmark: one seeded workload, measured for --seconds, every output checked.

    python3 perfbench/run.py --workload {cli,solve,curve,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ``src/nwe`` must be there.  This driver
needs only the standard library.  It starts fresh children that import
``nwe`` and build the inputs (their median is ``setup_s``), then one worker
child that measures the workload in a closed loop with one client and no
extra threads (OMP/OPENBLAS/MKL_NUM_THREADS=1).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cli", "solve", "curve", "certify")
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run ends well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PACKAGES = ("numpy", "scipy")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def parse_importtime(text: str) -> dict:
    """import.* metrics in ms from ``python -X importtime`` output.

    ``import.nwe_ms`` is the cumulative time of ``import nwe`` and
    ``import.nwe_self_ms`` the self time of the nwe modules inside it.
    ``import.numpy_ms`` and ``import.scipy_ms`` sum the cumulative time of
    every import of that package not nested inside an import of numpy or
    scipy, so a numpy module that scipy pulls in counts for scipy only.
    """
    entries = []  # (self_us, cumulative_us, depth, name), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|", 2)
        name = field[1:].lstrip(" ")
        entries.append((int(self_us), int(cum_us), (len(field) - 1 - len(name)) // 2, name))
    out = {"import.nwe_ms": 0, **{f"import.{pkg}_ms": 0 for pkg in IMPORT_PACKAGES}, "import.nwe_self_ms": 0}
    ancestors = []  # walking backwards, parents come before their children
    for self_us, cum_us, depth, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        above = [a for _d, a in ancestors]
        if name == "nwe":
            out["import.nwe_ms"] += cum_us
        if top == "nwe" and (name == "nwe" or "nwe" in above):
            out["import.nwe_self_ms"] += self_us
        if top in IMPORT_PACKAGES and not any(a.split(".")[0] in IMPORT_PACKAGES for a in above):
            out[f"import.{top}_ms"] += cum_us
        ancestors.append((depth, name))
    return {key: us / 1e3 for key, us in out.items()}


def run_child(args: list, env: dict, deadline: float, importtime: bool = False) -> tuple:
    """Run one child to completion; (last stdout line as JSON, stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(WORKER), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("benchmark deadline passed before a child could start")
    # A session of its own, so that a timeout also ends the CLI children it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), stderr


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nwe" / "__init__.py").is_file():
        print(f"error: no src/nwe package under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    trace = bool(args.trace)

    try:
        setups, imports = [], []
        for _ in range(SETUP_PROBES):
            probe, stderr = run_child([*common, "--setup-only"], env, deadline, importtime=trace)
            setups.append(probe["setup_s"])
            if trace:
                imports.append(parse_importtime(stderr))
        result, _ = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"commit": commit(), **result["environment"], "nproc": os.cpu_count()}
    print("environment: " + json.dumps(record, sort_keys=True))
    if "search_leaves" in result:
        print("solve inputs (search_leaves computed from each config): " + json.dumps(result["search_leaves"]))
    print(
        f"workload {args.workload}, seed {args.seed}: {result['rounds']} rounds, {result['ops']} ops, "
        "closed loop, 1 client, 1 process"
    )
    for reason in result["reasons"]:
        print(f"FAILED {reason}")
    attempted, failed = result["attempted"], result["failed"]

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "op_p50_ms": (result["op_p50_ms"], "ms"),
            "op_tail_ms": (result["op_tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh children: " + ", ".join(f"{s:.4f}" for s in setups),
            "op_tail_ms": (
                f"p{result['tail_percentile']:.2f} of {result['ops']} samples, {result['tail_beyond']} beyond; "
                "each sample is its op's median over the rounds"
            ),
            "peak_rss_mb": "largest CLI child" if args.workload == "cli" else "worker process",
        }
        for name, p50 in sorted(result.get("per_label_p50_ms", {}).items()):
            print(f"  {name}: p50 {p50:.2f} ms")
    else:
        metrics = {
            name: (statistics.median(probe[name] for probe in imports), "ms") for name in imports[0]
        }
        metrics.update({name: tuple(v) for name, v in result["layer"].items()})
        notes = {
            "discrimination.optimal_local.search_leaves": "computed from each call's config",
            "signaling.lp_solves": "computed: 1 per inside result, 2 per outside result",
            "trace.overhead_frac": "traced wall time over the same rounds untraced, minus 1",
        }
        print("no wait metric: one client in a closed loop, no queues and no extra threads")
        print(f"spans written to {result['trace_file']}")

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value} {unit}{note}")
    print(f"fail_frac = {failed / attempted} ratio  ({failed} of {attempted} ops failed)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
