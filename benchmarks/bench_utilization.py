"""§5.2 in-text result: log-disk per-track space utilization under
TPC-C grows with transaction concurrency.

Paper: "when the transaction concurrency is 4, the per-track space
utilization of Trail's log disk is 12%.  The same per-track space
utilization is increased to 21% when the concurrency is 8, and to over
30% when the concurrency is 12" — because more concurrent terminals
produce burstier log-queue arrivals, and each batched write fills more
of its track before the head moves on.

Also includes the track-switch-threshold ablation from DESIGN.md: the
threshold trades write latency (lower threshold -> fresher tracks ->
shorter rotational waits) against space efficiency.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis import build_trail_system
from repro.core.config import TrailConfig
from repro.tpcc import TpccRunConfig, TpccRunResult, run_tpcc
from repro.units import KiB
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)

CONCURRENCY_LEVELS = [4, 8, 12]
PAPER_UTILIZATION_PCT = {4: 12, 8: 21, 12: "30+"}
TRANSACTIONS = 3000


@pytest.fixture(scope="module")
def results() -> Dict[int, TpccRunResult]:
    out = {}
    for concurrency in CONCURRENCY_LEVELS:
        # Match the paper's §5.2 regime: "the CPU time each transaction
        # requires is much smaller than the disk I/O delay due to
        # database logging" — a warm cache and tiny CPU cost make
        # transactions log-bound, so commits bunch at the log disk and
        # batch sizes grow with concurrency.  The page flusher is
        # quiesced because the paper's Berkeley DB kept dirty pages in
        # its 300 MB mpool (its log disk carried nearly pure log
        # traffic).
        config = TpccRunConfig(system="trail", transactions=TRANSACTIONS,
                               concurrency=concurrency, warehouses=1,
                               seed=31, flush_interval_ms=10_000.0,
                               flush_batch=1, cpu_ms_per_op=0.02,
                               pool_pages=20_000)
        out[concurrency] = run_tpcc(config)
    return out


def test_utilization_report(results, paper_numbers):
    paper_numbers.check(
        "utilization",
        ["concurrency", "batch/track utilization (%)", "paper (%)"],
        [[concurrency,
          100 * results[concurrency].one_batch_per_track_utilization,
          PAPER_UTILIZATION_PCT[concurrency]]
         for concurrency in CONCURRENCY_LEVELS],
        title="Sec. 5.2: Trail log-disk per-track utilization "
              "(one-batched-write-per-track metric, as the paper "
              "assumes) vs TPC-C concurrency")


def test_utilization_does_not_shrink_with_concurrency(results):
    """Direction-or-flat: our deterministic service times produce far
    less commit bunching than the paper's testbed (EXPERIMENTS.md D3),
    so the growth is weak; it must never reverse materially."""
    values = [results[c].one_batch_per_track_utilization
              for c in CONCURRENCY_LEVELS]
    assert values[-1] >= values[0] * 0.95, values


def test_utilization_in_plausible_band(results):
    """Not exact percentages, but the same regime: meaningful
    ten-to-tens-of-percent utilization, nowhere near full tracks.
    (Our per-commit log volume is ~2x the paper's because the engine
    logs before+after images, so the absolute level sits higher.)"""
    for concurrency in CONCURRENCY_LEVELS:
        utilization = results[concurrency].one_batch_per_track_utilization
        assert 0.05 < utilization < 0.8, (concurrency, utilization)


def test_batching_drives_the_effect(results):
    """Concurrency makes some forces share a physical log write: fewer
    physical log writes than transactions (impossible at c=1 with one
    force per commit)."""
    high = results[12]
    assert (high.log_physical_writes
            < high.transactions_completed * 1.0)


# ----------------------------------------------------------------------
# Ablation: the 30% track-switch threshold (DESIGN.md §5)

THRESHOLDS = [0.10, 0.30, 0.60, 0.90]


@pytest.fixture(scope="module")
def threshold_sweep():
    out = {}
    for threshold in THRESHOLDS:
        system = build_trail_system(
            config=TrailConfig(track_utilization_threshold=threshold))
        workload = SyncWriteWorkload(requests_per_process=150,
                                     write_bytes=KiB(2),
                                     mode=ArrivalMode.CLUSTERED, seed=3)
        result = run_sync_write_workload(system.sim, system.driver,
                                         workload)
        allocator = system.driver.allocator
        out[threshold] = (result.mean_latency_ms,
                          allocator.mean_retired_utilization())
    return out


def test_threshold_ablation_report(threshold_sweep, paper_numbers):
    paper_numbers.check(
        "threshold_ablation",
        ["switch threshold", "mean write latency (ms)",
         "retired-track utilization (%)"],
        [[f"{threshold:.0%}", latency, 100 * utilization]
         for threshold, (latency, utilization)
         in sorted(threshold_sweep.items())],
        title="Ablation: track-switch threshold trade-off "
              "(clustered 2 KB writes)")


def test_higher_threshold_higher_utilization(threshold_sweep):
    utilizations = [threshold_sweep[t][1] for t in THRESHOLDS]
    assert utilizations[0] < utilizations[-1]
