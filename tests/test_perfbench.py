"""The benchmark harness's own self-tests, run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    # no bytecode, so the run leaves perfbench/ as it found it
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
