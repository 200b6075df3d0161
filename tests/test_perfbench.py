import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    # The benchmark harness wraps package functions by module attribute and
    # reads fields of what they return; its self-check runs every workload
    # once untraced and once traced at a reduced size, and exits 0 only if
    # the correctness checks pass and the outputs match bitwise.
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
