"""Shared fixtures and helpers for the test suite.

Most tests run on the ``tiny_test_disk`` drive model: 10 ms revolution,
sub-millisecond seeks, 40 tracks — large enough to exercise wraparound
and recovery, small enough that every test is instant.

Every session runs with ``TRAILSAN=1`` (``repro.sim.sanitizer``): a
test that needs the plain engine unsets it with ``monkeypatch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import pytest

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.core.multilog import StripedTrailDriver
from repro.disk.drive import DiskDrive
from repro.disk.presets import tiny_test_disk
from repro.faults import FaultPlan
from repro.faults.oracle import Audit, DurabilityOracle
from repro.sim import Simulation


@pytest.fixture(autouse=True, scope="session")
def _sanitized_session() -> Iterator[None]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TRAILSAN", "1")
        yield


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation clock."""
    return Simulation()


def make_tiny_drive(
    sim: Simulation,
    name: str = "disk",
    cylinders: int = 20,
    heads: int = 2,
    sectors_per_track: int = 16,
    phase_drift=None,
) -> DiskDrive:
    """A small drive bound to ``sim``."""
    return tiny_test_disk(
        cylinders=cylinders, heads=heads,
        sectors_per_track=sectors_per_track,
    ).make_drive(sim, name, phase_drift=phase_drift)


def make_tiny_trail(
    config: Optional[TrailConfig] = None,
    data_disks: int = 1,
    log_cylinders: int = 30,
    mount: bool = True,
    log_plan: Optional[FaultPlan] = None,
    data_plan: Optional[FaultPlan] = None,
) -> Tuple[Simulation, TrailDriver, DiskDrive, Dict[int, DiskDrive]]:
    """A formatted (and optionally mounted) Trail stack on tiny drives.

    The fault plans, if given, are attached after the format, so the
    format itself never draws a fault.
    """
    sim = Simulation()
    log_drive = make_tiny_drive(sim, "log", cylinders=log_cylinders)
    data = {
        disk_id: make_tiny_drive(sim, f"data{disk_id}", cylinders=80,
                                 heads=4, sectors_per_track=32)
        for disk_id in range(data_disks)
    }
    trail_config = config or TrailConfig(idle_reposition_interval_ms=0)
    TrailDriver.format_disk(log_drive)
    if log_plan is not None:
        log_drive.attach_faults(log_plan)
    if data_plan is not None:
        for drive in data.values():
            drive.attach_faults(data_plan)
    driver = TrailDriver(sim, log_drive, data, trail_config)
    if mount:
        sim.run_until(sim.process(driver.mount()))
    return sim, driver, log_drive, data


def make_striped(stripes: int = 2, data_disks: int = 1,
                 log_cylinders: int = 30, mount: bool = True):
    """:func:`make_tiny_trail` with a striped log of ``stripes`` drives."""
    sim = Simulation()
    logs = [make_tiny_drive(sim, f"log{i}", cylinders=log_cylinders)
            for i in range(stripes)]
    data = {
        disk_id: make_tiny_drive(sim, f"data{disk_id}", cylinders=80,
                                 heads=4, sectors_per_track=32)
        for disk_id in range(data_disks)
    }
    StripedTrailDriver.format_disks(logs)
    driver = StripedTrailDriver(
        sim, logs, data, TrailConfig(idle_reposition_interval_ms=0))
    if mount:
        sim.run_until(sim.process(driver.mount()))
    return sim, driver, logs, data


def drive_to_completion(sim: Simulation, generator, name: str = "test"):
    """Run ``generator`` as a process to completion; return its value."""
    return sim.run_until(sim.process(generator, name=name))


def crash_at(sim: Simulation, driver, process, crash_at_ms: float) -> None:
    """Cut the power ``crash_at_ms`` from now: interrupt ``process`` if
    it is still running, crash ``driver``, and run the sim dry."""
    def crasher():
        yield sim.timeout(crash_at_ms)
        if process.is_alive:
            process.interrupt("power failure")
        driver.crash()

    sim.process(crasher())
    sim.run()


def write_until_crash(sim: Simulation, driver, oracle, writes,
                      crash_at_ms: float, gap_ms: float = 0.0) -> None:
    """Write ``(lba, fill)`` sectors in order, feeding ``oracle``, with
    a crash ``crash_at_ms`` from now, mid-workload or after it."""
    sector = oracle.sector_size

    def workload():
        try:
            for lba, fill in writes:
                payload = bytes([fill]) * sector
                oracle.issue(lba, payload)
                yield driver.write(lba, payload)
                oracle.ack(lba, payload)
                if gap_ms:
                    yield sim.timeout(gap_ms)
        except Exception:
            return

    crash_at(sim, driver, sim.process(workload()), crash_at_ms)


@dataclass
class Restart:
    """A stack brought back up by :func:`cold_restart`; ``report`` is
    a list for a striped log, as its mount returns."""

    sim: Simulation
    driver: Any
    report: Any
    log: Any
    data: Dict[int, DiskDrive]

    def audit(self, oracle: DurabilityOracle) -> Audit:
        """``oracle``'s audit of the restarted data disks (a striped
        log's per-stripe reports excuse nothing)."""
        report = None if isinstance(self.report, list) else self.report
        return oracle.audit(
            lambda disk, lba: self.data[disk].store.read_sector(lba), report)


def _reborn(sim: Simulation, old: DiskDrive, plans: bool) -> DiskDrive:
    """A tiny drive like ``old`` in ``sim``, over a copy of its platters."""
    (zone,) = old.geometry.zones
    drive = make_tiny_drive(sim, old.name, cylinders=zone.cylinder_count,
                            heads=old.geometry.heads,
                            sectors_per_track=zone.sectors_per_track)
    drive.store.restore(old.store.snapshot())
    if plans and old.faults is not None:
        # A fresh injector: same plan, same seed, same behaviour.
        drive.attach_faults(old.faults.plan)
    return drive


def cold_restart(
    log: Union[DiskDrive, List[DiskDrive], None],
    data: Dict[int, DiskDrive],
    *,
    plans: bool = True,
    mount: bool = True,
) -> Restart:
    """Power-cycle a crashed stack into a fresh simulation.

    Every drive is rebuilt over a copy-on-write copy of its platters
    (the old drives stay untouched, so one crash can be restarted many
    times) and gets back the fault plan it carried, unless ``plans`` is
    False.  ``log`` is the log drive, a list of them for a striped log,
    or None for platters with no Trail driver on top.  A Trail driver
    is mounted (running recovery) unless ``mount`` is False; a mount
    failure propagates.
    """
    sim = Simulation()
    logs = [log] if isinstance(log, DiskDrive) else list(log or [])
    new_logs = [_reborn(sim, drive, plans) for drive in logs]
    new_data = {disk_id: _reborn(sim, drive, plans)
                for disk_id, drive in data.items()}
    config = TrailConfig(idle_reposition_interval_ms=0)
    driver: Any = None
    if isinstance(log, DiskDrive):
        driver = TrailDriver(sim, new_logs[0], new_data, config)
    elif log is not None:
        driver = StripedTrailDriver(sim, new_logs, new_data, config)
    report = None
    if driver is not None and mount:
        report = sim.run_until(sim.process(driver.mount()))
    return Restart(sim, driver, report,
                   new_logs[0] if isinstance(log, DiskDrive) else new_logs,
                   new_data)
