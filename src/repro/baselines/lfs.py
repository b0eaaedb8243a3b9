"""A log-structured-file-system-style driver (related-work comparator).

Section 2 of the paper positions Trail against LFS: LFS batches
*asynchronous* writes into segments, but a *synchronous* write cannot
wait for a segment to fill — it must be forced to the log tail at
once, and "all disk writes still incur rotational latency" because the
target sector's angular position is whatever it happens to be.  LFS
also pays cleaning: reclaiming a segment requires reading its live
blocks off the disk and rewriting them at the tail, whereas Trail
write-backs come from host memory.

This driver implements that model: the disk is divided into fixed
segments appended in sequence, a mapping table tracks each logical
block's current physical location, and a threshold-driven cleaner
copies live blocks out of the oldest segments.  It exists so the
benchmark suite can measure the comparison the paper argues
qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Mapping, Tuple

from repro.blockdev import BlockDevice, DataTarget
from repro.disk.controller import PRIORITY_READ, PRIORITY_WRITE
from repro.errors import TrailError
from repro.sim import Event, LatencyRecorder, Resource, Simulation
from repro.units import sectors_for


@dataclass
class LfsStats:
    """Measurements for the LFS-style driver."""

    sync_writes: LatencyRecorder = field(default_factory=LatencyRecorder)
    reads: int = 0
    logical_writes: int = 0
    segments_cleaned: int = 0
    live_sectors_copied: int = 0


@dataclass
class _Segment:
    """Bookkeeping for one on-disk segment."""

    index: int
    live_sectors: int = 0


class LfsDriver(BlockDevice):
    """Append-only data layout with threshold-driven cleaning."""

    def __init__(
        self,
        sim: Simulation,
        data_disks: Mapping[int, DataTarget],
        segment_sectors: int = 512,
        clean_threshold: float = 0.25,
    ) -> None:
        if len(data_disks) != 1:
            raise TrailError(
                "the LFS comparator manages exactly one disk")
        if segment_sectors < 8:
            raise TrailError(
                f"segment must be >= 8 sectors, got {segment_sectors}")
        self.sim = sim
        self.data_disks: Dict[int, DataTarget] = dict(data_disks)
        self._disk = next(iter(self.data_disks.values()))
        self.segment_sectors = segment_sectors
        self.clean_threshold = clean_threshold
        self.stats = LfsStats()

        total = self._disk.geometry.total_sectors
        self._segment_count = total // segment_sectors
        if self._segment_count < 4:
            raise TrailError("disk too small for 4 segments")
        #: logical LBA -> physical LBA of its newest version.
        self._mapping: Dict[int, int] = {}
        #: physical LBA -> logical LBA (for cleaning).
        self._reverse: Dict[int, int] = {}
        self._segments: List[_Segment] = [
            _Segment(index) for index in range(self._segment_count)]
        self._free_segments: List[int] = list(range(1, self._segment_count))
        self._current_segment = 0
        self._tail = 0  # physical LBA of the next append
        #: Serializes log-tail appends (a single log head position).
        self._tail_lock = Resource(sim, capacity=1)

    # ------------------------------------------------------------------

    @property
    def sector_size(self) -> int:
        return self._disk.geometry.sector_size

    @property
    def free_fraction(self) -> float:
        """Fraction of segments still free."""
        return len(self._free_segments) / self._segment_count

    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        """Synchronous write: force the blocks to the log tail."""
        self.data_disk(disk_id)
        if not data:
            raise TrailError("cannot write an empty extent")
        self.stats.logical_writes += 1
        return self.sim.process(self._write(lba, data),
                                name=f"lfs-write@{lba}")

    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        """Read via the mapping table (may be physically scattered)."""
        self.data_disk(disk_id)
        self.stats.reads += 1
        return self.sim.process(self._read(lba, nsectors),
                                name=f"lfs-read@{lba}")

    def flush(self) -> Generator:
        """All writes are forced synchronously; nothing to flush."""
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------

    def _write(self, lba: int, data: bytes) -> Generator:
        start = self.sim.now
        sector_size = self.sector_size
        nsectors = sectors_for(len(data), sector_size)
        padded = data + bytes(nsectors * sector_size - len(data))

        token = self._tail_lock.request()
        yield token
        try:
            written = 0
            while written < nsectors:
                room = self._segment_end() - self._tail
                if room == 0:
                    yield from self._open_next_segment()
                    room = self._segment_end() - self._tail
                take = min(nsectors - written, room)
                physical = self._tail
                chunk = padded[written * sector_size:
                               (written + take) * sector_size]
                yield self._disk.write(physical, chunk,
                                       priority=PRIORITY_READ)
                for offset in range(take):
                    self._install(lba + written + offset, physical + offset)
                self._tail += take
                written += take
        finally:
            self._tail_lock.release(token)

        latency = self.sim.now - start
        self.stats.sync_writes.record(latency)
        return latency

    def _read(self, lba: int, nsectors: int) -> Generator:
        sector_size = self.sector_size
        chunks: List[bytes] = []
        # Coalesce physically contiguous runs into single disk reads.
        runs: List[Tuple[int, int]] = []  # (physical start, count)
        for offset in range(nsectors):
            physical = self._mapping.get(lba + offset)
            if physical is None:
                physical = -1  # never written: sparse zero sector
            if runs and physical >= 0 and runs[-1][0] >= 0 and \
                    physical == runs[-1][0] + runs[-1][1]:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            elif runs and physical < 0 and runs[-1][0] < 0:
                runs[-1] = (-1, runs[-1][1] + 1)
            else:
                runs.append((physical, 1))
        for physical, count in runs:
            if physical < 0:
                chunks.append(bytes(count * sector_size))
            else:
                result = yield self._disk.read(physical, count,
                                               priority=PRIORITY_READ)
                chunks.append(result.data)
        return b"".join(chunks)

    # ------------------------------------------------------------------
    # Segment management

    def _segment_end(self) -> int:
        return (self._current_segment + 1) * self.segment_sectors

    def _install(self, logical: int, physical: int) -> None:
        old = self._mapping.get(logical)
        if old is not None:
            self._segments[old // self.segment_sectors].live_sectors -= 1
            self._reverse.pop(old, None)
        self._mapping[logical] = physical
        self._reverse[physical] = logical
        self._segments[physical // self.segment_sectors].live_sectors += 1

    def _open_next_segment(self) -> Generator:
        if not self._free_segments:
            yield from self._clean(min_segments=1)
        if not self._free_segments:
            raise TrailError("LFS disk is full of live data")
        self._current_segment = self._free_segments.pop(0)
        self._tail = self._current_segment * self.segment_sectors
        if self.free_fraction < self.clean_threshold:
            yield from self._clean(min_segments=2)

    def _clean(self, min_segments: int) -> Generator:
        """Copy live blocks out of the emptiest old segments.

        Each cleaned segment costs a disk read of its live sectors and
        a disk write appending them at the tail — the garbage-collection
        overhead the paper contrasts with Trail's free FIFO reclamation.
        """
        candidates = sorted(
            (segment for segment in self._segments
             if segment.index != self._current_segment
             and segment.index not in self._free_segments),
            key=lambda segment: segment.live_sectors)
        cleaned = 0
        for segment in candidates:
            if cleaned >= min_segments:
                break
            base = segment.index * self.segment_sectors
            live = [
                (physical, self._reverse[physical])
                for physical in range(base, base + self.segment_sectors)
                if physical in self._reverse
            ]
            for physical, logical in live:
                result = yield self._disk.read(physical, 1,
                                               priority=PRIORITY_WRITE)
                self.stats.live_sectors_copied += 1
                room = self._segment_end() - self._tail
                if room == 0:
                    if not self._free_segments:
                        raise TrailError("LFS cleaner ran out of space")
                    self._current_segment = self._free_segments.pop(0)
                    self._tail = (self._current_segment
                                  * self.segment_sectors)
                yield self._disk.write(self._tail, result.data,
                                       priority=PRIORITY_WRITE)
                self._install(logical, self._tail)
                self._tail += 1
            segment.live_sectors = 0
            self._free_segments.append(segment.index)
            self.stats.segments_cleaned += 1
            cleaned += 1
