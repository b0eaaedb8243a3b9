"""The standard disk subsystem baseline ("EXT2" / Linux in the paper).

Every synchronous write goes straight to its data disk at its real
address and completes only when the in-place write finishes — paying
the full seek plus rotational latency that Trail eliminates.  Reads go
to the same disks; reads and writes share each drive's FIFO queue with
equal priority, like a plain disk driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Mapping

from repro.blockdev import BlockDevice, DataTarget
from repro.disk.controller import PRIORITY_READ
from repro.errors import TrailError
from repro.sim import Event, LatencyRecorder, Simulation


@dataclass
class StandardStats:
    """Measurements for the baseline driver."""

    sync_writes: LatencyRecorder = field(default_factory=LatencyRecorder)
    reads: int = 0
    logical_writes: int = 0

    @property
    def logging_io_ms(self) -> float:
        """Total time callers spent blocked on synchronous writes."""
        return self.sync_writes.total


class StandardDriver(BlockDevice):
    """In-place synchronous writes: the paper's comparison baseline."""

    def __init__(self, sim: Simulation,
                 data_disks: Mapping[int, DataTarget]) -> None:
        if not data_disks:
            raise TrailError("StandardDriver needs at least one data disk")
        self.sim = sim
        self.data_disks: Dict[int, DataTarget] = dict(data_disks)
        self.stats = StandardStats()

    @property
    def sector_size(self) -> int:
        return next(iter(self.data_disks.values())).geometry.sector_size

    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        """Synchronous in-place write; event value is the latency in ms."""
        disk = self.data_disk(disk_id)
        if not data:
            raise TrailError("cannot write an empty extent")
        self.stats.logical_writes += 1
        return self.sim.process(self._write(disk, lba, data),
                                name=f"std-write@{lba}")

    def _write(self, disk: DataTarget, lba: int, data: bytes) -> Generator:
        start = self.sim.now
        yield disk.write(lba, data, priority=PRIORITY_READ)
        latency = self.sim.now - start
        self.stats.sync_writes.record(latency)
        return latency

    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        """Read directly from the data disk."""
        disk = self.data_disk(disk_id)
        self.stats.reads += 1
        return self.sim.process(self._read(disk, lba, nsectors),
                                name=f"std-read@{lba}")

    def _read(self, disk: DataTarget, lba: int, nsectors: int) -> Generator:
        result = yield disk.read(lba, nsectors, priority=PRIORITY_READ)
        return result.data

    def flush(self) -> Generator:
        """Nothing is buffered; completes immediately."""
        return
        yield  # pragma: no cover - makes this a generator
