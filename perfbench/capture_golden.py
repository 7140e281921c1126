"""Record the golden files of the CLI.

    python3 perfbench/capture_golden.py

Run once at the commit whose CLI output is the reference.  The cli workload
compares stdout, CSV and exit code of every headline command against
perfbench/golden/cli.json.  The certify workload compares its distinct
channel counts against perfbench/golden/distinct.json, the "distinct
channels" line that ``signal --polygon`` prints for each (n, m) it can draw.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    env = run.child_env()
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        out_path = Path(tmp) / "curve.csv"
        for argv in workloads.CLI_COMMANDS:
            result = workloads.run_cli_subprocess(argv, run.ROOT, env, out_path)
            golden[workloads.slug(argv)] = workloads.normalise(result, out_path)
        distinct = {}
        for n, m in workloads.CERTIFY_POLYGONS:
            argv = ("signal", "--polygon", str(n), "--m", str(m), "--n", "2", "--d", "2")
            _code, stdout, _csv = workloads.run_cli_subprocess(argv, run.ROOT, env, out_path)
            distinct[f"{n}.{m}"] = int(workloads.DEDUP_LINE.search(stdout)[1])
    for path, data in ((workloads.GOLDEN, golden), (workloads.GOLDEN_DISTINCT, distinct)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
