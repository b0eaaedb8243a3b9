"""Multiple log disks: the paper's closing optimization (§5.1).

"As a final optimization, it is possible to employ multiple log disks
to completely hide the disk re-positioning overhead from user
applications."  While one log disk's head is moving to a fresh track,
a write can land on another log disk whose head is already parked —
so clustered synchronous writes stop paying the track-switch delay
that Figure 3 shows for single-log-disk Trail.

:class:`StripedTrailDriver` composes N complete Trail instances (each
with its own log disk, predictor, allocator, staging buffer, and
write-back scheduler) over a shared set of data disks.  Requests are
routed by *page affinity* — the same (disk, LBA) extent always goes to
the same stripe — which preserves per-page write ordering end to end:
a page's log records, staging-buffer versions, and write-backs all
live in one stripe, so no stale cross-stripe write-back can clobber a
newer version, and crash recovery per stripe replays each page's
history in issue order.  Burst traffic spreads across stripes because
distinct pages hash to different stripes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence

from repro.blockdev import BlockDevice, DataTarget
from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.core.recovery import RecoveryReport
from repro.disk.drive import DiskDrive
from repro.errors import TrailError
from repro.sim import Event, Simulation


class StripedTrailDriver(BlockDevice):
    """Trail with N log disks, striped by page affinity."""

    def __init__(
        self,
        sim: Simulation,
        log_drives: Sequence[DiskDrive],
        data_disks: Mapping[int, DataTarget],
        config: Optional[TrailConfig] = None,
    ) -> None:
        if not log_drives:
            raise TrailError("need at least one log disk")
        self.sim = sim
        self.data_disks: Dict[int, DataTarget] = dict(data_disks)  # trailsan: atomic_group(stripe-set)
        self.config = config or TrailConfig()
        self.stripes: List[TrailDriver] = [  # trailsan: atomic_group(stripe-set)
            TrailDriver(sim, log_drive, data_disks, self.config)
            for log_drive in log_drives
        ]

    # ------------------------------------------------------------------

    @staticmethod
    def format_disks(log_drives: Sequence[DiskDrive]) -> None:
        """Format every log disk as a Trail log disk."""
        for log_drive in log_drives:
            TrailDriver.format_disk(log_drive)

    def mount(
        self,
    ) -> Generator[Event, Any, List[Optional[RecoveryReport]]]:
        """Mount every stripe; returns the recovery reports (per
        stripe, None where no recovery was needed)."""
        reports: List[Optional[RecoveryReport]] = []
        for stripe in self.stripes:
            report = yield self.sim.process(stripe.mount())
            reports.append(report)
        return reports

    @property
    def mounted(self) -> bool:
        """True when every stripe is serving requests."""
        return all(stripe.mounted for stripe in self.stripes)

    @property
    def sector_size(self) -> int:
        return self.stripes[0].sector_size

    def _stripe_of(self, disk_id: int, lba: int) -> TrailDriver:
        return self.stripes[hash((disk_id, lba)) % len(self.stripes)]

    # ------------------------------------------------------------------
    # Block-device interface

    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        # unit: (lba: data_lba)
        """Route the write to its page-affine stripe."""
        return self._stripe_of(disk_id, lba).write(lba, data,
                                                   disk_id=disk_id)

    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        # unit: (lba: data_lba, nsectors: sectors)
        """Read via the owning stripe (its staging buffer holds any
        newer-than-disk contents for this extent)."""
        return self._stripe_of(disk_id, lba).read(lba, nsectors,
                                                  disk_id=disk_id)

    def flush(self) -> Generator[Event, Any, None]:
        """Wait until every stripe is quiescent."""
        for stripe in self.stripes:
            yield from stripe.flush()

    def clean_shutdown(self) -> Generator[Event, Any, None]:
        """Flush and cleanly unmount every stripe."""
        for stripe in self.stripes:
            yield from stripe.clean_shutdown()

    def crash(self) -> None:
        """Power failure across the whole array."""
        for stripe in self.stripes:
            stripe.crash()
