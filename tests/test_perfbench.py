"""The benchmark's self-test: one small pass of every workload plus
corrupted inputs, run as a child process the way the benchmark runs."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_counts_exactly_the_corrupted_jobs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # the detuned trajectory must fail on whatever route its bare array takes
    assert result["expected_failed"] == [
        "selftest.detuned_audit",
        "selftest.detuned_trajectory",
        "selftest.leaky_theorem1",
        "selftest.negative_rate",
    ]
    assert result["failed"] == 4
