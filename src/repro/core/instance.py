"""One Trail stack under one roof: the multi-instance facade.

A Trail stack is five pieces — a
:class:`~repro.sim.kernel.Simulation`, a formatted log drive, the data
targets, a :class:`~repro.core.driver.TrailDriver` (which owns the
:class:`~repro.core.buffer.BufferManager`, write-back scheduler, and
recovery manager), and the format/mount calls that bind them.  Ad-hoc
assembly is exactly how cross-instance state leaks slip in: anything a
component stashes at module scope is shared by *every* stack in the
process, which the TIS001 and TIS004 rules of ``tools/lint.py``
forbid and the interleaved-twin harness
(``tests/integration/test_two_instances.py``) checks at runtime.

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
    Any, Dict, Generic, List, Mapping, Optional, Sequence, Tuple, TypeVar)

from repro.blockdev import BlockDevice, DataTarget
from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.core.recovery import RecoveryReport
from repro.disk.drive import DiskDrive
from repro.errors import SimulationError
from repro.sim import Event, Simulation

#: What an instance fronts as a data disk: a raw drive or a RAID array.
DataT = TypeVar("DataT", bound=DataTarget)


class TrailInstance(Generic[DataT]):
    """A complete, self-contained Trail stack.

    The constructor takes *pre-built* drives so callers control
    creation order (event sequence numbers are handed out at drive
    construction, and the golden-trace tests pin the historical
    order); :func:`repro.analysis.experiments.build_trail_system`
    builds the paper's testbed from drive specs.
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
        drives: List[Any] = [self.log_drive]
        for disk_id in sorted(self.data_drives):
            target = self.data_drives[disk_id]
            drives.extend(getattr(target, "drives", None) or [target])
        return store_digest(drives)

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
    """A baseline (standard/LFS/DCD) driver and its drives: the same
    facade as :class:`TrailInstance` for the comparison systems."""

    def __init__(
        self,
        sim: Simulation,
        driver: BlockDevice,
        data_drives: Mapping[int, DataT],
    ) -> None:
        self.sim = sim
        self.driver = driver
        self.data_drives: Dict[int, DataT] = dict(data_drives)


def store_digest(drives: Sequence[Any]) -> str:
    """SHA-256 over each drive's name and written extents, in order.

    Drives without a sector store contribute nothing.
    """
    digest = hashlib.sha256()
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
