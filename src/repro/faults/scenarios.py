"""Canned fault-injection demos behind ``python -m repro faults``.

Each scenario builds a small Trail testbed, attaches a seeded
:class:`~repro.faults.plan.FaultPlan` to one or more drives, runs a
write workload (crashing and remounting where the scenario calls for
it), audits the data disks against the
:class:`~repro.faults.oracle.DurabilityOracle` the workload fed, and
returns the audit plus the error/retry/remap/degraded-mode counters
for the CLI to render.  Scenarios are deterministic: the same
``--seed`` reproduces the same fault sequence and the same tables.

This module imports the full Trail stack, so it must never be imported
from ``repro.faults.__init__`` (the drive layer imports
``repro.faults.plan``); the CLI imports it lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from types import MappingProxyType
from typing import Any, Callable, Generator, List, Mapping, Optional

from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.core.recovery import RecoveryReport
from repro.disk.drive import DiskDrive
from repro.disk.presets import tiny_test_disk
from repro.errors import DiskHaltedError, MediaError, TrailError
from repro.faults.oracle import Audit, DurabilityOracle
from repro.faults.plan import FaultPlan
from repro.sim import Event, Simulation


@dataclass
class ScenarioResult:
    """Everything a scenario measured, ready for table rendering."""

    name: str
    description: str
    #: [drive, transient errs, retries, read errs, write errs,
    #:  remapped, spikes]
    drive_rows: List[List[object]] = field(default_factory=list)
    #: [drive, bad sectors, grown, corrupted, remapped, spares left]
    injector_rows: List[List[object]] = field(default_factory=list)
    #: [metric, value] pairs from the Trail driver itself.
    driver_rows: List[List[object]] = field(default_factory=list)
    recovery: Optional[RecoveryReport] = None
    #: The data disks checked against every write the workload issued.
    audit: Audit = field(default_factory=Audit)
    notes: List[str] = field(default_factory=list)


def _build_testbed(config: Optional[TrailConfig] = None,
                   data_disk_count: int = 1) -> TrailInstance[DiskDrive]:
    """A tiny-drive Trail instance (fast enough for an interactive demo)."""
    sim = Simulation()
    spec = tiny_test_disk(cylinders=40)
    log_drive = spec.make_drive(sim, "trail-log")
    data_drives = {
        disk_id: spec.make_drive(sim, f"data{disk_id}")
        for disk_id in range(data_disk_count)
    }
    trail_config = config or TrailConfig(idle_reposition_interval_ms=0)
    return TrailInstance(sim, log_drive, data_drives, trail_config)


def _writer(bed: TrailInstance[DiskDrive], oracle: DurabilityOracle,
            count: int, seed: int, gap_ms: float = 2.0,
            ) -> Generator[Event, Any, None]:
    """Issue ``count`` seeded single-page writes, tolerating failures."""
    rng = Random(seed)
    sector_size = bed.driver.sector_size
    span = bed.data_drives[0].geometry.total_sectors
    for index in range(count):
        lba = rng.randrange(0, span - 4)
        payload = bytes([index % 251] * sector_size)
        oracle.issue(lba, payload)
        try:
            yield bed.driver.write(lba, payload)
            oracle.ack(lba, payload)
        except (MediaError, DiskHaltedError, TrailError):
            # Media failure, power loss, or driver down.
            oracle.fail(lba, payload)
        if gap_ms > 0:
            yield bed.sim.timeout(gap_ms)


def _audit(bed: TrailInstance[DiskDrive], oracle: DurabilityOracle,
           result: ScenarioResult) -> None:
    """Check the data disks against the oracle; note what it found."""
    audit = result.audit = oracle.audit(
        lambda disk, lba: bed.data_drives[disk].store.read_sector(lba),
        result.recovery)
    result.notes.append(
        f"{oracle.acked_writes} writes acknowledged, "
        f"{oracle.failed_writes} failed")
    result.notes.append(
        f"audit of the data disks: {audit.verified} sectors verified, "
        f"{len(audit.excused)} reported lost, {len(audit.lost)} lost "
        f"and {len(audit.invented)} invented without a report")


def _write_flush_audit(bed: TrailInstance[DiskDrive],
                       result: ScenarioResult, count: int, seed: int) -> None:
    """Seeded writes, a full flush, then the audit (no crash)."""
    oracle = DurabilityOracle(bed.driver.sector_size)
    bed.sim.run_until(bed.sim.process(
        _writer(bed, oracle, count=count, seed=seed)))
    bed.sim.run_until(bed.sim.process(bed.driver.flush()))
    _audit(bed, oracle, result)


def _collect(bed: TrailInstance[DiskDrive],
             result: ScenarioResult) -> None:
    """Fill the stats tables from every drive and the driver."""
    drives = [bed.log_drive] + [bed.data_drives[key]
                                for key in sorted(bed.data_drives)]
    for drive in drives:
        stats = drive.stats
        result.drive_rows.append([
            drive.name, stats.transient_errors, stats.retries,
            stats.read_errors, stats.write_errors,
            stats.sectors_remapped, stats.latency_spikes])
        if drive.faults is not None:
            injector = drive.faults
            result.injector_rows.append([
                drive.name, len(injector.bad_sectors),
                len(injector.grown_defects),
                len(injector.corrupted_sectors),
                len(injector.remapped_sectors), injector.spares_left])
    driver = bed.driver
    result.driver_rows = [
        ["logical writes", driver.stats.logical_writes],
        ["physical log writes", driver.stats.physical_log_writes],
        ["mean sync latency (ms)",
         round(driver.stats.sync_writes.mean, 3)
         if driver.stats.sync_writes.count else "-"],
        ["log media errors", driver.stats.log_media_errors],
        ["degraded mode", "yes" if driver.degraded else "no"],
        ["degraded writes", driver.stats.degraded_writes],
        ["writeback retries", driver.writeback.write_retries],
        ["writeback pages relocated", driver.writeback.pages_relocated],
        ["writeback pages parked", len(driver.writeback.failed_pages)],
    ]


def _scenario_flaky_data_disk(seed: int) -> ScenarioResult:
    """Transient data-disk write errors: retries and spare remapping."""
    result = ScenarioResult(
        name="flaky-data-disk",
        description=_scenario_flaky_data_disk.__doc__ or "")
    bed = _build_testbed()
    bed.data_drives[0].attach_faults(FaultPlan(
        seed=seed, transient_write_error_prob=0.25,
        latent_bad_sectors=frozenset(range(200, 208)),
        retry_limit=2, spare_sectors=32))
    _write_flush_audit(bed, result, count=150, seed=seed)
    _collect(bed, result)
    return result


def _scenario_dying_log_disk(seed: int) -> ScenarioResult:
    """Unrecoverable log-disk sectors: degrade to write-through."""
    result = ScenarioResult(
        name="dying-log-disk",
        description=_scenario_dying_log_disk.__doc__ or "")
    bed = _build_testbed()
    geometry = bed.log_drive.geometry
    # Every usable log track beyond the first two is unwritable and the
    # spare pool is empty, so the writer hits an unrecoverable sector
    # as soon as it advances past them.
    first_bad_track = 6
    first_lba = geometry.track_first_lba(first_bad_track)
    bad = frozenset(range(first_lba, geometry.total_sectors))
    bed.log_drive.attach_faults(FaultPlan(
        seed=seed, latent_bad_sectors=bad, retry_limit=1,
        spare_sectors=0))
    _write_flush_audit(bed, result, count=120, seed=seed)
    if bed.driver.degraded:
        result.notes.append(
            "the driver abandoned the log disk and now acknowledges "
            "writes synchronously from the data disks")
    _collect(bed, result)
    return result


def _scenario_corrupt_log_crash(seed: int) -> ScenarioResult:
    """Silent log corruption + crash: recovery detects and reports."""
    result = ScenarioResult(
        name="corrupt-log-crash",
        description=_scenario_corrupt_log_crash.__doc__ or "")
    bed = _build_testbed()
    bed.log_drive.attach_faults(FaultPlan(seed=seed, corruption_prob=0.10))

    def crasher() -> Generator[Event, Any, None]:
        yield bed.sim.timeout(120.0)
        bed.driver.crash()

    oracle = DurabilityOracle(bed.driver.sector_size)
    bed.sim.process(_writer(bed, oracle, count=200, seed=seed, gap_ms=1.0))
    bed.sim.process(crasher())
    bed.sim.run()
    result.notes.append("crashed at t=120 ms")

    result.recovery = report = bed.remount()
    _audit(bed, oracle, result)
    if report is not None and report.damaged:
        result.notes.append(
            "recovery found bit-flipped records via the payload CRC and "
            "reported the affected sectors instead of replaying garbage")
    _collect(bed, result)
    return result


def _scenario_latency_spikes(seed: int) -> ScenarioResult:
    """Per-command latency spikes: thermal recalibration pauses."""
    result = ScenarioResult(
        name="latency-spikes",
        description=_scenario_latency_spikes.__doc__ or "")
    bed = _build_testbed()
    plan = FaultPlan(seed=seed, latency_spike_prob=0.15,
                     latency_spike_ms=25.0)
    bed.log_drive.attach_faults(plan)
    bed.data_drives[0].attach_faults(plan)
    _write_flush_audit(bed, result, count=150, seed=seed)
    result.notes.append(
        "spikes stretch individual commands but corrupt nothing; "
        "compare mean latency against a clean run of the same seed")
    _collect(bed, result)
    return result


# Per-run state lives in each runner's TrailInstance.
SCENARIOS: Mapping[str, Callable[[int], ScenarioResult]] = \
    MappingProxyType({
        "flaky-data-disk": _scenario_flaky_data_disk,
        "dying-log-disk": _scenario_dying_log_disk,
        "corrupt-log-crash": _scenario_corrupt_log_crash,
        "latency-spikes": _scenario_latency_spikes,
    })


def run_fault_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run one named scenario and return its collected statistics."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown fault scenario {name!r} (known: {known})") from None
    return runner(seed)
