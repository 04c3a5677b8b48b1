"""Smoke check of the benchmark harness: run with ``python3 -m pytest bench``.

Every operation kind of every workload runs once on its smallest input, untraced
and traced, and every output check applies; nothing is timed.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_every_operation_kind_runs_and_passes_its_check():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
