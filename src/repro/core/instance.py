"""One Trail stack under one roof: the multi-instance facade.

Every entry point used to assemble the same five pieces by hand — a
:class:`~repro.sim.kernel.Simulation`, a formatted log drive, the data
targets, a :class:`~repro.core.driver.TrailDriver` (which owns the
:class:`~repro.core.buffer.BufferManager`, write-back scheduler, and
recovery manager), and the format/mount calls that bind them.  Ad-hoc
assembly is exactly how cross-instance state leaks slip in: anything a
component stashes at module scope is shared by *every* stack in the
process, which the ``tools/trailiso`` static pass forbids and the
interleaved-twin harness (``tests/integration/test_two_instances.py``)
checks at runtime.

:class:`TrailInstance` is the one sanctioned assembly.  Two instances
in one process share nothing but immutable module constants, so:

* running instance B must not perturb instance A's event order
  (``sim.trace`` is byte-identical solo vs interleaved), and
* the disk images each instance produces (:meth:`TrailInstance.
  fingerprint`) are byte-identical solo vs interleaved.

:func:`run_interleaved` round-robins several instances' simulations
one event at a time in a single process — the runtime twin of the
static isolation rules (TIS001 and TIS004).
"""

from __future__ import annotations

import hashlib
from typing import (
    Any, Callable, Dict, Generic, List, Mapping, Optional, Sequence,
    Tuple, TypeVar)

from repro.blockdev import BlockDevice, DataTarget
from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.core.recovery import RecoveryReport
from repro.disk.drive import DiskDrive
from repro.disk.presets import DriveSpec, st41601n, wd_caviar_10gb
from repro.errors import SimulationError
from repro.sim import Event, Simulation
from repro.units import Sectors

#: What an instance fronts as a data disk: a raw drive or a RAID array.
DataT = TypeVar("DataT", bound=DataTarget)


class TrailInstance(Generic[DataT]):
    """A complete, self-contained Trail stack.

    The constructor takes *pre-built* drives so callers control
    creation order (event sequence numbers are handed out at drive
    construction, and the golden-trace tests pin the historical
    order); :meth:`build` covers the common case of building
    everything from specs.

    The attribute surface (``sim`` / ``driver`` / ``log_drive`` /
    ``data_drives``) deliberately matches the old ``TrailSystem``
    dataclass, so the ~30 benchmark and test call sites read
    unchanged.
    """

    def __init__(
        self,
        sim: Simulation,
        log_drive: DiskDrive,
        data_disks: Mapping[int, DataT],
        config: Optional[TrailConfig] = None,
        *,
        format_log: bool = True,
        mount: bool = True,
    ) -> None:
        self.sim = sim
        self.log_drive = log_drive
        self.data_drives: Dict[int, DataT] = dict(data_disks)
        trail_config = config if config is not None else TrailConfig()
        if format_log:
            TrailDriver.format_disk(log_drive)
        self.driver = TrailDriver(
            sim, log_drive, self.data_drives, trail_config)
        #: Report of the most recent mount's recovery pass, if any.
        self.recovery: Optional[RecoveryReport] = None
        if mount:
            self.mount()

    @classmethod
    def build(
        cls,
        data_disk_count: int = 1,
        config: Optional[TrailConfig] = None,
        log_spec: Optional[DriveSpec] = None,
        data_spec: Optional[DriveSpec] = None,
        mount: bool = True,
        phase_drift: Optional[Callable[[float], float]] = None,
    ) -> "TrailInstance[DiskDrive]":
        """The paper's testbed: ST41601N log disk, WD Caviar data disks.

        With ``mount=True`` the simulation is advanced through format
        + mount so the returned driver is ready for requests.
        """
        sim = Simulation()
        log_drive = (log_spec or st41601n()).make_drive(
            sim, "trail-log", phase_drift=phase_drift)
        data_drives = {
            disk_id: (data_spec or wd_caviar_10gb()).make_drive(
                sim, f"data{disk_id}")
            for disk_id in range(data_disk_count)
        }
        return TrailInstance(sim, log_drive, data_drives, config,
                             mount=mount)

    def mount(self) -> Optional[RecoveryReport]:
        """Advance the simulation through mount (and any recovery)."""
        report = self.sim.run_until(
            self.sim.process(self.driver.mount()))
        self.recovery = report
        return self.recovery

    def crash(self) -> None:
        """Cut power to the whole instance mid-flight."""
        self.driver.crash()

    def remount(self) -> Optional[RecoveryReport]:
        """Power the drives back on and mount a fresh driver.

        The crashed driver is discarded (its in-memory buffers died
        with the power); the replacement sees only what reached the
        platters, which is the whole point of the recovery path.
        Returns the recovery report and leaves it in :attr:`recovery`.
        """
        self.log_drive.power_on()
        for target in self.data_drives.values():
            target.power_on()
        self.driver = TrailDriver(
            self.sim, self.log_drive, self.data_drives,
            self.driver.config)
        return self.mount()

    # ------------------------------------------------------------------
    # Isolation checks

    def fingerprint(self) -> str:
        """Digest of every written sector this instance owns.

        Covers the log drive and every data target (RAID arrays
        contribute each member drive).  Two runs of the same seeded
        workload — solo or interleaved with other instances — must
        produce the same fingerprint; anything else means state leaked
        between instances.
        """
        digest = hashlib.sha256()
        drives: List[Any] = [self.log_drive]
        for disk_id in sorted(self.data_drives):
            target = self.data_drives[disk_id]
            members = getattr(target, "members", None)
            if members is None:
                drives.append(target)
            else:
                drives.extend(members)
        for drive in drives:
            store = getattr(drive, "store", None)
            if store is None:
                continue
            digest.update(drive.name.encode())
            for lba, nsectors in store.written_extents():
                digest.update(lba.to_bytes(8, "big"))
                digest.update(nsectors.to_bytes(4, "big"))
                digest.update(store.read(lba, nsectors))
        return digest.hexdigest()

    def trace_digest(self) -> str:
        """Digest of the recorded event-order trace.

        Requires ``sim.enable_trace()`` before the workload ran.
        """
        trace = self.sim.trace
        if trace is None:
            raise SimulationError(
                "trace_digest() needs sim.enable_trace() before the run")
        return _digest_trace(trace)


class BaselineInstance(Generic[DataT]):
    """A baseline (standard/LFS/DCD) driver and its drives.

    Same facade idea as :class:`TrailInstance` for the comparison
    systems; the attribute surface matches the old ``BaselineSystem``
    dataclass.
    """

    def __init__(
        self,
        sim: Simulation,
        driver: BlockDevice,
        data_drives: Mapping[int, DataT],
    ) -> None:
        self.sim = sim
        self.driver = driver
        self.data_drives: Dict[int, DataT] = dict(data_drives)

    @classmethod
    def build_standard(
        cls,
        data_disk_count: int = 1,
        data_spec: Optional[DriveSpec] = None,
    ) -> "BaselineInstance[DiskDrive]":
        """The paper's baseline: the data disks behind a plain driver."""
        from repro.baselines.standard import StandardDriver

        sim = Simulation()
        data_drives = {
            disk_id: (data_spec or wd_caviar_10gb()).make_drive(
                sim, f"data{disk_id}")
            for disk_id in range(data_disk_count)
        }
        driver = StandardDriver(sim, data_drives)
        return BaselineInstance(sim, driver, data_drives)

    @classmethod
    def build_lfs(
        cls,
        data_spec: Optional[DriveSpec] = None,
        segment_sectors: Sectors = 512,
    ) -> "BaselineInstance[DiskDrive]":
        """The related-work comparator: one disk behind the LFS driver."""
        from repro.baselines.lfs import LfsDriver

        sim = Simulation()
        data_drives = {
            0: (data_spec or wd_caviar_10gb()).make_drive(sim, "lfs0")}
        driver = LfsDriver(sim, data_drives,
                           segment_sectors=segment_sectors)
        return BaselineInstance(sim, driver, data_drives)


def run_interleaved(
        runs: Sequence[Tuple[TrailInstance[Any], Event]]) -> None:
    """Round-robin several instances until each target event fires.

    Each ``(instance, event)`` pair advances one dispatched event per
    round until its event has fired; instances whose event already
    fired sit out the remaining rounds.  Per-simulation event order is
    exactly what a solo :meth:`~repro.sim.kernel.Simulation.run_until`
    would produce — interleaving changes *which process's turn it is
    globally*, never the order within one simulation — so fingerprints
    and traces must match the solo runs.
    """
    pending = list(runs)
    while pending:
        still = []
        for instance, event in pending:
            if event.processed:
                continue
            if not instance.sim.step():
                raise SimulationError(
                    "interleaved event cannot fire: "
                    "the event heap is empty")
            still.append((instance, event))
        pending = [(instance, event) for instance, event in still
                   if not event.processed]


def _digest_trace(trace: Sequence[Tuple[float, int]]) -> str:
    """Stable hex digest of a ``(time, sequence)`` event trace."""
    digest = hashlib.sha256()
    for when, sequence in trace:
        digest.update(f"{when!r}:{sequence}\n".encode())
    return digest.hexdigest()
