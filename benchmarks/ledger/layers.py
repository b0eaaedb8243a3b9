"""Sim-clock per-layer metrics, read from public ``*Stats`` objects.

Layers are the packages of ``src/repro``.  Nothing here reaches into a
layer: every value comes from a stats object the layer already
publishes, read once after the pass.  A metric a workload's stack does
not have (``db.*`` without a database, ``core.recovery.*`` without a
crash) is reported as 0, which is also the interaction table's
prediction for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: name -> unit, in report order.  ``BENCHMARK.json`` lists exactly
#: these (plus the host ledger in trace.py); test_ledger.py holds the
#: two in step.
SIM_LAYER_UNITS: Dict[str, str] = {
    "disk.log.commands": "count",
    "disk.log.sectors_written": "count",
    "disk.log.busy_ms": "ms",
    "disk.log.queue_ms": "ms",
    "disk.log.overhead_ms": "ms",
    "disk.log.seek_ms": "ms",
    "disk.log.rotation_ms": "ms",
    "disk.log.transfer_ms": "ms",
    "disk.log.rotation_ms_per_cmd": "ms",
    "disk.log.utilization": "ratio",
    "disk.data.reads": "count",
    "disk.data.writes": "count",
    "disk.data.busy_ms": "ms",
    "disk.data.queue_ms": "ms",
    "disk.data.seek_ms": "ms",
    "disk.data.rotation_ms": "ms",
    "disk.data.transfer_ms": "ms",
    "disk.data.utilization": "ratio",
    "disk.errors": "count",
    "core.logical_writes": "count",
    "core.physical_log_writes": "count",
    "core.writes_per_record": "ratio",
    "core.batch_sectors_mean": "sectors",
    "core.repositions": "count",
    "core.log_full_stalls": "count",
    "core.ack_wait_ms_total": "ms",
    "core.log_sectors_per_user_sector": "ratio",
    "core.track_utilization_mean": "ratio",
    "core.reads_from_buffer": "count",
    "core.reads_from_disk": "count",
    "core.pending_pages_at_last_ack": "count",
    "core.writes_deduplicated": "count",
    "core.writes_cancelled": "count",
    "core.writeback_pages_written": "count",
    "core.writeback_retries": "count",
    "core.degraded_writes": "count",
    "core.recovery.count": "count",
    "core.recovery.locate_ms": "ms",
    "core.recovery.rebuild_ms": "ms",
    "core.recovery.writeback_ms": "ms",
    "core.recovery.tracks_scanned": "count",
    "core.recovery.records_found": "count",
    "core.recovery.sectors_replayed": "count",
    "core.recovery.torn_records_dropped": "count",
    "db.wal.flushes": "count",
    "db.wal.bytes_appended": "bytes",
    "db.wal.bytes_flushed": "bytes",
    "db.wal.flush_io_ms_total": "ms",
    "db.wal.latch_wait_ms": "ms",
    "db.pool.hits": "count",
    "db.pool.misses": "count",
    "db.pool.hit_ratio": "ratio",
    "db.pool.dirty_evictions": "count",
    "db.pool.background_writes": "count",
    "db.locks.acquisitions": "count",
    "db.locks.waits": "count",
    "db.locks.wait_ms_total": "ms",
    "db.locks.deadlock_aborts": "count",
    "db.engine.committed": "count",
    "db.engine.aborted": "count",
    "db.engine.log_records": "count",
    "tpcc.completed": "count",
    "tpcc.rolled_back": "count",
    "tpcc.deadlock_failures": "count",
    "tpcc.work_ms_mean": "ms",
    "tpcc.tpmc": "1/min",
}


@dataclass
class Stack:
    """The layer objects one pass ran on, as the harness saw them."""

    sim: Any
    log_drive: Any
    data_drives: List[Any]
    #: Every ``TrailDriver`` that served the pass (one per mount).
    drivers: List[Any]
    pending_pages_at_last_ack: int = 0
    recoveries: List[Any] = field(default_factory=list)
    engine: Optional[Any] = None
    tpcc: Optional[Any] = None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def collect(stack: Stack) -> Dict[str, float]:
    """Every name of :data:`SIM_LAYER_UNITS` for one finished pass."""
    out = dict.fromkeys(SIM_LAYER_UNITS, 0.0)
    elapsed_ms = stack.sim.now

    log = stack.log_drive.stats
    out["disk.log.commands"] = log.commands
    out["disk.log.sectors_written"] = log.sectors_written
    for part in ("busy", "queue", "overhead", "seek", "rotation",
                 "transfer"):
        out[f"disk.log.{part}_ms"] = getattr(log, f"{part}_ms")
    out["disk.log.rotation_ms_per_cmd"] = log.mean_rotation_ms
    out["disk.log.utilization"] = _ratio(log.busy_ms, elapsed_ms)

    for drive in stack.data_drives:
        data = drive.stats
        out["disk.data.reads"] += data.reads
        out["disk.data.writes"] += data.writes
        for part in ("busy", "queue", "seek", "rotation", "transfer"):
            out[f"disk.data.{part}_ms"] += getattr(data, f"{part}_ms")
    out["disk.data.utilization"] = _ratio(
        out["disk.data.busy_ms"], elapsed_ms * len(stack.data_drives))
    out["disk.errors"] = sum(
        drive.stats.read_errors + drive.stats.write_errors
        + drive.stats.retries
        for drive in [stack.log_drive, *stack.data_drives])

    payload_sectors = 0.0
    retired: List[float] = []
    for driver in stack.drivers:
        stats = driver.stats
        out["core.logical_writes"] += stats.logical_writes
        out["core.physical_log_writes"] += stats.physical_log_writes
        out["core.repositions"] += stats.repositions
        out["core.log_full_stalls"] += stats.log_full_stalls
        out["core.ack_wait_ms_total"] += stats.sync_writes.total
        out["core.reads_from_buffer"] += stats.reads_from_buffer
        out["core.reads_from_disk"] += stats.reads_from_disk
        out["core.degraded_writes"] += stats.degraded_writes
        out["core.writes_deduplicated"] += driver.buffers.writes_deduplicated
        out["core.writes_cancelled"] += driver.buffers.writes_cancelled
        out["core.writeback_pages_written"] += driver.writeback.pages_written
        out["core.writeback_retries"] += driver.writeback.write_retries
        payload_sectors += stats.batch_sizes.total
        if driver.allocator is not None:
            retired.extend(driver.allocator.retired_utilizations)
    records = out["core.physical_log_writes"]
    out["core.writes_per_record"] = _ratio(
        out["core.logical_writes"], records)
    out["core.batch_sectors_mean"] = _ratio(payload_sectors, records)
    out["core.log_sectors_per_user_sector"] = _ratio(
        log.sectors_written, payload_sectors)
    out["core.track_utilization_mean"] = _ratio(sum(retired), len(retired))
    out["core.pending_pages_at_last_ack"] = stack.pending_pages_at_last_ack

    # Recovery: ``count`` recoveries; every other value is the mean per
    # recovery, which is what Fig. 4 plots.
    reports = stack.recoveries
    out["core.recovery.count"] = len(reports)
    for name in ("locate_ms", "rebuild_ms", "writeback_ms",
                 "tracks_scanned", "records_found", "sectors_replayed",
                 "torn_records_dropped"):
        out[f"core.recovery.{name}"] = _ratio(
            sum(getattr(report, name) for report in reports), len(reports))

    engine = stack.engine
    if engine is not None:
        wal, pool, locks = engine.wal.stats, engine.pool.stats, \
            engine.locks.stats
        out["db.wal.flushes"] = wal.flushes
        out["db.wal.bytes_appended"] = wal.bytes_appended
        out["db.wal.bytes_flushed"] = wal.bytes_flushed
        out["db.wal.flush_io_ms_total"] = wal.flush_io.total
        out["db.wal.latch_wait_ms"] = wal.latch_wait_ms
        out["db.pool.hits"] = pool.hits
        out["db.pool.misses"] = pool.misses
        out["db.pool.hit_ratio"] = pool.hit_ratio
        out["db.pool.dirty_evictions"] = pool.dirty_evictions
        out["db.pool.background_writes"] = pool.background_writes
        out["db.locks.acquisitions"] = locks.acquisitions
        out["db.locks.waits"] = locks.waits
        out["db.locks.wait_ms_total"] = locks.total_wait_ms
        out["db.locks.deadlock_aborts"] = locks.deadlock_aborts
        out["db.engine.committed"] = engine.stats.committed
        out["db.engine.aborted"] = engine.stats.aborted
        out["db.engine.log_records"] = engine.stats.log_records

    tpcc = stack.tpcc
    if tpcc is not None:
        out["tpcc.completed"] = tpcc.completed
        out["tpcc.rolled_back"] = tpcc.rolled_back
        out["tpcc.deadlock_failures"] = tpcc.deadlock_failures
        out["tpcc.work_ms_mean"] = _ratio(
            tpcc.work_time.total, tpcc.work_time.count)
        out["tpcc.tpmc"] = tpcc.tpmc
    return {name: float(value) for name, value in out.items()}
