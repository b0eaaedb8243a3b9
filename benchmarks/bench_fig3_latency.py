"""Figure 3: average synchronous write latency, Trail vs the standard
disk subsystem, sparse vs clustered arrivals, 1 and 5 processes.

Paper claims reproduced here:
  * Trail is up to ~12x faster than the standard subsystem.
  * Trail's advantage shrinks as the write size grows (transfer time
    dominates what Trail eliminates).
  * The standard subsystem performs the same under sparse and
    clustered arrivals; Trail is slower clustered than sparse (the
    track-switch overhead is masked only by idle gaps).
  * With 5 processes the gap *widens* in clustered mode (queueing).
  * §5.1 latency decomposition: a 1-sector Trail write costs ~1.4 ms
    (overhead + transfer) with residual rotational latency < 0.5 ms,
    an order of magnitude below the 5.5 ms average rotational delay.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis import build_standard_system, build_trail_system
from repro.units import KiB
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)

SIZES = [512, KiB(1), KiB(4), KiB(16), KiB(64)]
REQUESTS = 60

Key = Tuple[str, int, str, int]  # (system, size, mode, processes)


def run_cell(system_kind: str, size: int, mode: ArrivalMode,
             processes: int):
    workload = SyncWriteWorkload(
        requests_per_process=REQUESTS, write_bytes=size, mode=mode,
        processes=processes, sparse_gap_ms=5.0, seed=13)
    if system_kind == "trail":
        system = build_trail_system()
    else:
        system = build_standard_system()
    result = run_sync_write_workload(system.sim, system.driver, workload)
    return result, system


@pytest.fixture(scope="module")
def grid() -> Dict[Key, float]:
    cells: Dict[Key, float] = {}
    for system_kind in ("trail", "standard"):
        for size in SIZES:
            for mode in ArrivalMode:
                for processes in (1, 5):
                    result, _system = run_cell(system_kind, size, mode,
                                               processes)
                    cells[(system_kind, size, mode.value, processes)] = \
                        result.mean_latency_ms
    return cells


@pytest.mark.parametrize("processes", [1, 5])
def test_figure3_report(grid, processes, paper_numbers):
    rows = []
    for size in SIZES:
        row = [f"{size // 1024}K" if size >= 1024 else f"{size}B"]
        for system_kind in ("trail", "standard"):
            for mode in ("sparse", "clustered"):
                row.append(grid[(system_kind, size, mode, processes)])
        row.append(grid[("standard", size, "sparse", processes)]
                   / grid[("trail", size, "sparse", processes)])
        rows.append(row)
    part = "a" if processes == 1 else "b"
    paper_numbers.check(
        f"fig3{part}",
        ["size", "trail sparse", "trail clust", "std sparse", "std clust",
         "speedup (sparse, x)"],
        rows,
        title=(f"Figure 3({part}): mean sync write latency (ms), "
               f"{processes} process(es) [paper: Trail up to 11.85x "
               f"faster]"))


def test_trail_much_faster_small_writes(grid):
    ratio = (grid[("standard", KiB(1), "sparse", 1)]
             / grid[("trail", KiB(1), "sparse", 1)])
    assert ratio > 5.0, f"expected a large multiple, got {ratio:.1f}x"


def test_advantage_decreases_with_size(grid):
    ratios = [grid[("standard", size, "sparse", 1)]
              / grid[("trail", size, "sparse", 1)] for size in SIZES]
    assert ratios[0] > ratios[-1] * 1.5
    # Broadly decreasing (allow small local noise).
    assert ratios[0] == max(ratios)


def test_standard_mode_insensitive(grid):
    for size in SIZES:
        sparse = grid[("standard", size, "sparse", 1)]
        clustered = grid[("standard", size, "clustered", 1)]
        assert abs(sparse - clustered) / sparse < 0.25


def test_trail_clustered_slower_than_sparse(grid):
    for size in SIZES[:3]:  # visible while switch cost matters
        assert (grid[("trail", size, "clustered", 1)]
                > grid[("trail", size, "sparse", 1)])


def test_multiprogramming_widens_clustered_gap(grid):
    """Figure 3(b)'s observation: with 5 processes the Trail advantage
    in clustered mode exceeds the single-process one."""
    size = KiB(1)
    gap_1 = (grid[("standard", size, "clustered", 1)]
             / grid[("trail", size, "clustered", 1)])
    gap_5 = (grid[("standard", size, "clustered", 5)]
             / grid[("trail", size, "clustered", 5)])
    assert gap_5 > gap_1


def test_latency_decomposition_single_sector(paper_numbers):
    """§5.1: ~1.4 ms one-sector writes; residual rotation < 0.5 ms
    (vs 5.5 ms average rotational latency of the drive)."""
    workload = SyncWriteWorkload(requests_per_process=100,
                                 write_bytes=512, seed=17)
    system = build_trail_system()
    result = run_sync_write_workload(system.sim, system.driver, workload)
    driver = system.driver
    mean_rotation = driver.predictor.realized_rotation.mean
    average_rotational = \
        driver.log_drive.rotation.average_rotational_latency_ms
    assert result.mean_latency_ms < 2.5
    assert mean_rotation < 0.5
    assert mean_rotation < average_rotational / 10
    paper_numbers.check(
        "fig3_single_sector",
        ["single-sector Trail write", "measured (ms)", "paper (ms)"],
        [["mean latency", result.mean_latency_ms, "~1.40"],
         ["mean realized rotational wait", mean_rotation, "< 0.5"],
         ["drive average rotational latency", average_rotational, 5.5]],
        title="Sec. 5.1 latency decomposition of a one-sector write")
