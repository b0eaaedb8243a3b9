"""The block-device contract shared by Trail and the baseline drivers.

The paper's point of comparison is that Trail "exposes exactly the same
interface as standard disk device drivers" — higher layers (the WAL,
the buffer pool, the synthetic workloads) are written against this
contract and run unchanged on :class:`~repro.core.driver.TrailDriver`,
:class:`~repro.baselines.standard.StandardDriver`, or
:class:`~repro.baselines.lfs.LfsDriver`.
"""

from __future__ import annotations

import abc
from typing import Dict, Protocol

from repro.disk.geometry import DiskGeometry
from repro.errors import TrailError
from repro.sim import Event, ProcessGenerator, Simulation
from repro.units import Lba, Sectors


class DataTarget(Protocol):
    """Structural contract for what a driver fronts as a "data disk".

    Satisfied by a raw :class:`~repro.disk.drive.DiskDrive` and by a
    :class:`~repro.raid.array.Raid5Array` (which aggregates several
    drives behind one flat LBA space), so every driver in this
    repository can front either without knowing which it got.  The
    surface is exactly what the Trail stack touches: addressed
    read/write commands returning completion events, extent
    validation via :attr:`geometry`, bad-sector relocation for the
    write-back retry path, and power control for crash injection.
    """

    name: str
    geometry: DiskGeometry

    def read(self, lba: Lba, nsectors: Sectors,
             priority: int = ...) -> Event: ...

    def write(self, lba: Lba, data: bytes,
              priority: int = ...) -> Event: ...

    def relocate(self, lba: Lba, nsectors: Sectors) -> Sectors: ...

    def halt(self) -> None: ...

    def power_on(self) -> None: ...


class BlockDevice(abc.ABC):
    """Abstract synchronous-write block device.

    ``write`` returns an event that fires — with the write's
    end-to-end latency in ms as its value — once the data is *durable*
    (will survive a power failure).  ``read`` returns an event whose
    value is the requested bytes.  What durability costs is exactly
    what distinguishes the implementations.

    Write-ordering contract: writes to the *same* extent (identical
    LBA and length — a buffer-cache page) are applied in issue order.
    Writes whose extents overlap without being identical have
    *undefined relative order*, exactly like a block cache fed
    mixed-granularity I/O; file systems and databases write uniform
    aligned pages, which is what every layer in this repository does.
    """

    sim: Simulation
    data_disks: Dict[int, DataTarget]

    @abc.abstractmethod
    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        """Durably write ``data`` at ``lba`` of data disk ``disk_id``."""

    @abc.abstractmethod
    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        """Read ``nsectors`` from ``lba`` of data disk ``disk_id``."""

    @abc.abstractmethod
    def flush(self) -> ProcessGenerator:
        """Generator: wait until all internal buffers are on disk."""

    @property
    @abc.abstractmethod
    def sector_size(self) -> int:
        """Sector size in bytes."""

    def data_disk(self, disk_id: int) -> DataTarget:
        """The data disk ``disk_id``; raises on an unknown id."""
        disk = self.data_disks.get(disk_id)
        if disk is None:
            raise TrailError(f"unknown data disk id {disk_id}")
        return disk
