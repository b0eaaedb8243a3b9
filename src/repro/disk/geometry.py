"""Physical disk geometry: cylinders, heads, zoned tracks, LBA mapping.

Trail's head-position prediction (paper §3.1) requires "a detailed
knowledge of the log disk's physical geometry": how many sectors each
track holds and how logical block addresses map onto (cylinder, head,
sector) triples.  This module models exactly that, including zoned bit
recording (outer zones hold more sectors per track), which is why the
prediction formula takes the *current track's* SPT as a parameter.

Track numbering is cylinder-major: track ``t`` lives on cylinder
``t // heads`` under head ``t % heads``.  "The next track" in the
paper's sense (§3.1, moving from track *i* to *i+1*) is therefore a
head switch within the cylinder when possible and a one-cylinder seek
otherwise — the cheapest physically adjacent track either way.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import AddressError, GeometryError
from repro.units import SECTOR_SIZE, Bytes, Cylinders, Lba, Sectors, Tracks


@dataclass(frozen=True)
class Zone:
    """A contiguous run of cylinders sharing a sectors-per-track count."""

    cylinder_count: int
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.cylinder_count < 1:
            raise GeometryError(
                f"zone must span >= 1 cylinder, got {self.cylinder_count}")
        if self.sectors_per_track < 1:
            raise GeometryError(
                f"zone must have >= 1 sector per track, got {self.sectors_per_track}")


@dataclass(frozen=True)
class CHS:
    """A physical (cylinder, head, sector) address."""

    cylinder: int
    head: int
    sector: int

    def __iter__(self) -> Iterator[int]:
        return iter((self.cylinder, self.head, self.sector))


class DiskGeometry:
    """Immutable description of a disk's physical layout.

    Parameters
    ----------
    heads:
        Number of recording surfaces (tracks per cylinder).
    zones:
        Outer-to-inner zone list.  A uniform (non-zoned) disk is a
        single zone.
    sector_size:
        Bytes per sector; the paper's drives use 512.
    """

    def __init__(
        self,
        heads: int,
        zones: Sequence[Zone],
        sector_size: int = SECTOR_SIZE,
    ) -> None:
        if heads < 1:
            raise GeometryError(f"heads must be >= 1, got {heads}")
        if not zones:
            raise GeometryError("at least one zone is required")
        if sector_size < 1:
            raise GeometryError(f"sector_size must be >= 1, got {sector_size}")
        self.heads = heads
        self.zones: Tuple[Zone, ...] = tuple(zones)
        self.sector_size = sector_size

        # Cumulative cylinder counts and LBA offsets at each zone
        # boundary, plus per-zone constants, precomputed once so the
        # per-request address math is bisect + arithmetic only.
        self._zone_first_cylinder: List[int] = []
        self._zone_first_lba: List[int] = []
        self._zone_spt: List[int] = []
        self._zone_sectors_per_cylinder: List[int] = []
        cylinder = 0
        lba = 0
        for zone in self.zones:
            self._zone_first_cylinder.append(cylinder)
            self._zone_first_lba.append(lba)
            self._zone_spt.append(zone.sectors_per_track)
            self._zone_sectors_per_cylinder.append(
                heads * zone.sectors_per_track)
            cylinder += zone.cylinder_count
            lba += zone.cylinder_count * heads * zone.sectors_per_track
        self.num_cylinders = cylinder
        self.total_sectors = lba
        self.num_tracks = cylinder * heads
        #: Memoized (cylinder, head, sectors-per-track, first LBA) per
        #: track index — the drive's per-segment service loop hits the
        #: same few tracks over and over.
        self._track_info: Dict[int, Tuple[int, int, int, int]] = {}

    # ------------------------------------------------------------------
    # Zone lookups

    def zone_of_cylinder(self, cylinder: Cylinders) -> int:
        """Index of the zone containing ``cylinder``."""
        self._check_cylinder(cylinder)
        return bisect.bisect_right(self._zone_first_cylinder, cylinder) - 1

    def sectors_per_track(self, cylinder: Cylinders) -> int:
        """SPT of every track on ``cylinder`` (zone-dependent)."""
        if not 0 <= cylinder < self.num_cylinders:
            self._check_cylinder(cylinder)
        return self._zone_spt[
            bisect.bisect_right(self._zone_first_cylinder, cylinder) - 1]

    # ------------------------------------------------------------------
    # Track numbering

    def track_of(self, cylinder: Cylinders, head: int) -> Tracks:
        """Cylinder-major track index of surface ``head`` on ``cylinder``."""
        self._check_cylinder(cylinder)
        self._check_head(head)
        return cylinder * self.heads + head

    def track_location(self, track: Tracks) -> Tuple[int, int]:
        """(cylinder, head) of track index ``track``."""
        self._check_track(track)
        return divmod(track, self.heads)

    def track_sectors(self, track: Tracks) -> Sectors:
        """Number of sectors on ``track``."""
        return self.track_info(track)[2]

    def track_first_lba(self, track: Tracks) -> Lba:
        """LBA of sector 0 of ``track``."""
        return self.track_info(track)[3]

    def track_info(self, track: Tracks) -> Tuple[int, int, int, int]:
        """(cylinder, head, sectors-per-track, first LBA) of ``track``.

        Memoized: the geometry is immutable, and the drive service loop
        asks about the same track for every sector it transfers.
        """
        info = self._track_info.get(track)
        if info is None:
            if not 0 <= track < self.num_tracks:
                self._check_track(track)
            cylinder, head = divmod(track, self.heads)
            zone_index = bisect.bisect_right(
                self._zone_first_cylinder, cylinder) - 1
            spt = self._zone_spt[zone_index]
            first_lba = (self._zone_first_lba[zone_index]
                         + (cylinder - self._zone_first_cylinder[zone_index])
                         * self._zone_sectors_per_cylinder[zone_index]
                         + head * spt)
            info = (cylinder, head, spt, first_lba)
            self._track_info[track] = info
        return info

    def track_of_lba(self, lba: Lba) -> Tracks:
        """Track index containing ``lba``."""
        return self.track_extent_of_lba(lba)[0]

    def track_extent_of_lba(self, lba: Lba) -> Tuple[int, int, int]:
        """(track, track's first LBA, sectors on track) containing ``lba``.

        One zone lookup instead of the three an LBA->CHS->track chain
        would cost; used by the drive's segment planner.
        """
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        zone_index = bisect.bisect_right(self._zone_first_lba, lba) - 1
        spt = self._zone_spt[zone_index]
        zone_first_lba = self._zone_first_lba[zone_index]
        tracks_into_zone, sector = divmod(lba - zone_first_lba, spt)
        first_cylinder = self._zone_first_cylinder[zone_index]
        track = first_cylinder * self.heads + tracks_into_zone
        return track, lba - sector, spt

    # ------------------------------------------------------------------
    # LBA <-> CHS

    def lba_to_chs(self, lba: Lba) -> CHS:
        """Convert a logical block address to its physical location."""
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        zone_index = bisect.bisect_right(self._zone_first_lba, lba) - 1
        offset = lba - self._zone_first_lba[zone_index]
        cylinders_into_zone, remainder = divmod(
            offset, self._zone_sectors_per_cylinder[zone_index])
        head, sector = divmod(remainder, self._zone_spt[zone_index])
        return CHS(self._zone_first_cylinder[zone_index] + cylinders_into_zone,
                   head, sector)

    def chs_to_lba(self, cylinder: Cylinders, head: int,
                   sector: Sectors) -> Lba:
        """Convert a physical location to its logical block address."""
        self._check_cylinder(cylinder)
        self._check_head(head)
        spt = self.sectors_per_track(cylinder)
        if not 0 <= sector < spt:
            raise AddressError(
                f"sector {sector} out of range [0, {spt}) on cylinder {cylinder}")
        return self.track_first_lba(self.track_of(cylinder, head)) + sector

    # ------------------------------------------------------------------
    # Capacity

    @property
    def capacity_bytes(self) -> Bytes:
        """Total formatted capacity in bytes."""
        return self.total_sectors * self.sector_size

    # ------------------------------------------------------------------
    # Validation helpers

    def _check_cylinder(self, cylinder: int) -> None:
        if not 0 <= cylinder < self.num_cylinders:
            raise AddressError(
                f"cylinder {cylinder} out of range [0, {self.num_cylinders})")

    def _check_head(self, head: int) -> None:
        if not 0 <= head < self.heads:
            raise AddressError(f"head {head} out of range [0, {self.heads})")

    def _check_track(self, track: int) -> None:
        if not 0 <= track < self.num_tracks:
            raise AddressError(
                f"track {track} out of range [0, {self.num_tracks})")

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.total_sectors:
            raise AddressError(
                f"LBA {lba} out of range [0, {self.total_sectors})")

    def check_extent(self, lba: Lba, nsectors: Sectors) -> None:
        """Validate that ``nsectors`` starting at ``lba`` fit on the disk."""
        self._check_lba(lba)
        if nsectors < 1:
            raise AddressError(f"sector count must be >= 1, got {nsectors}")
        if lba + nsectors > self.total_sectors:
            raise AddressError(
                f"extent [{lba}, {lba + nsectors}) exceeds disk size "
                f"{self.total_sectors}")

    def __repr__(self) -> str:
        return (f"<DiskGeometry {self.num_cylinders} cyl x {self.heads} heads, "
                f"{len(self.zones)} zones, {self.total_sectors} sectors, "
                f"{self.capacity_bytes / 2**30:.2f} GiB>")


def uniform_geometry(
    cylinders: int,
    heads: int,
    sectors_per_track: int,
    sector_size: int = SECTOR_SIZE,
) -> DiskGeometry:
    """Convenience constructor for an un-zoned disk."""
    return DiskGeometry(
        heads=heads,
        zones=[Zone(cylinder_count=cylinders, sectors_per_track=sectors_per_track)],
        sector_size=sector_size,
    )
