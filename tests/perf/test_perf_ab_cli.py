"""``make perf-ab`` can claim on any end-to-end metric, and only those."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_unknown_metric_is_refused_before_measuring():
    done = subprocess.run(
        [sys.executable, "benchmarks/perf_ab.py", "--ref", "HEAD",
         "--metric", "disk.calls"],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 2
    assert "invalid choice: 'disk.calls'" in done.stderr
    assert "peak_rss_mb" in done.stderr      # the valid names are listed
    assert "pair" not in done.stdout         # nothing ran


@pytest.mark.skipif(shutil.which("make") is None, reason="make not installed")
def test_make_target_passes_the_metric():
    claimed = subprocess.run(
        ["make", "-n", "perf-ab", "REF=abc", "WORKLOAD=burst-rw",
         "METRIC=peak_rss_mb"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert "--metric peak_rss_mb" in claimed.stdout
    default = subprocess.run(
        ["make", "-n", "perf-ab", "REF=abc"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert "--metric host_ops_per_s" in default.stdout
