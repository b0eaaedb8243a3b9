"""DCD — Disk Caching Disk (Hu & Yang, ISCA '96): the other §2 baseline.

DCD interposes a two-level cache in front of the data disk: a small
**NVRAM** buffer absorbs small writes at memory speed, and when it
fills, its contents are flushed as one large sequential write to a
dedicated **cache disk** laid out as a log.  Data migrates from the
cache disk to its home location on the data disk in the background
(destaging).  Reads check NVRAM, then the cache-disk map, then the
data disk.

The paper's §2 comparison points, which this implementation lets the
benchmarks measure:

* DCD's write latency is essentially NVRAM latency — *better* than
  Trail's — but it "requires extra hardware (NVRAM)", which is the
  cost Trail avoids; and once the NVRAM is full, writes stall behind a
  cache-disk flush.
* Destaging reads data back *from the cache disk* before writing it to
  the data disk (like LFS cleaning), where Trail's write-backs come
  from host memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Mapping, Optional, Tuple

from repro.blockdev import BlockDevice, DataTarget
from repro.disk.controller import PRIORITY_READ, PRIORITY_WRITE
from repro.disk.drive import DiskDrive
from repro.errors import TrailError
from repro.sim import (
    Event, Interrupt, LatencyRecorder, Process, Simulation)
from repro.units import microseconds


@dataclass
class DcdStats:
    """Measurements for the DCD driver."""

    sync_writes: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(keep_samples=True))
    reads: int = 0
    logical_writes: int = 0
    nvram_hits: int = 0
    nvram_stalls: int = 0
    cache_disk_flushes: int = 0
    destaged_sectors: int = 0
    cache_disk_reads_for_destage: int = 0


class DcdDriver(BlockDevice):
    """NVRAM + log-structured cache disk + data disk."""

    def __init__(
        self,
        sim: Simulation,
        cache_disk: DiskDrive,
        data_disks: Mapping[int, DataTarget],
        nvram_bytes: int = 512 * 1024,
        nvram_write_us: float = 10.0,
        destage_idle_ms: float = 20.0,
    ) -> None:
        if not data_disks:
            raise TrailError("DCD needs at least one data disk")
        if nvram_bytes < 4096:
            raise TrailError("NVRAM must be >= 4 KiB")
        self.sim = sim
        self.cache_disk = cache_disk
        self.data_disks: Dict[int, DataTarget] = dict(data_disks)
        self.nvram_bytes = nvram_bytes
        self.nvram_write_ms = microseconds(nvram_write_us)
        self.destage_idle_ms = destage_idle_ms
        self.stats = DcdStats()

        #: NVRAM contents: (disk_id, lba) -> sector bytes.
        self._nvram: Dict[Tuple[int, int], bytes] = {}
        self._nvram_used = 0
        #: Cache-disk map: (disk_id, lba) -> cache-disk LBA.
        self._cache_map: Dict[Tuple[int, int], int] = {}
        #: Destage queue of (disk_id, lba, cache_lba), oldest first.
        self._destage_queue: List[Tuple[int, int, int]] = []
        self._cache_tail = 0
        self._flush_in_progress: Optional[Event] = None
        self._destager: Optional[Process] = None
        self._last_activity = 0.0

    # ------------------------------------------------------------------

    @property
    def sector_size(self) -> int:
        return self.cache_disk.geometry.sector_size

    def start(self) -> None:
        """Launch the background destager."""
        if self._destager is None or not self._destager.is_alive:
            self._destager = self.sim.process(self._destage_loop(),
                                              name="dcd-destager")

    def stop(self) -> None:
        """Stop the destager (shutdown/crash)."""
        if self._destager is not None and self._destager.is_alive:
            self._destager.interrupt("stop")
        self._destager = None

    # ------------------------------------------------------------------
    # Block-device interface

    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        """Durable once in NVRAM (battery-backed); may stall on a
        cache-disk flush when the NVRAM is full."""
        self._check_disk(disk_id)
        if not data:
            raise TrailError("cannot write an empty extent")
        self.stats.logical_writes += 1
        return self.sim.process(self._write(disk_id, lba, data),
                                name=f"dcd-write@{lba}")

    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        """NVRAM, then cache disk, then the data disk."""
        self._check_disk(disk_id)
        self.stats.reads += 1
        return self.sim.process(self._read(disk_id, lba, nsectors),
                                name=f"dcd-read@{lba}")

    def flush(self) -> Generator:
        """Drain NVRAM and the destage queue completely."""
        while self._nvram or self._destage_queue \
                or self._flush_in_progress is not None:
            if self._nvram and self._flush_in_progress is None:
                yield from self._flush_nvram()
            else:
                yield self.sim.timeout(1.0)

    # ------------------------------------------------------------------

    def _write(self, disk_id: int, lba: int, data: bytes) -> Generator:
        started = self.sim.now
        sector_size = self.sector_size
        nsectors = (len(data) + sector_size - 1) // sector_size
        padded = data + bytes(nsectors * sector_size - len(data))

        needed = nsectors * sector_size
        while self._nvram_used + needed > self.nvram_bytes:
            # NVRAM full: the incoming write stalls behind a flush —
            # DCD's burst-absorption limit.
            self.stats.nvram_stalls += 1
            if self._flush_in_progress is None:
                yield from self._flush_nvram()
            else:
                yield self._flush_in_progress

        yield self.sim.timeout(self.nvram_write_ms * nsectors)
        for index in range(nsectors):
            key = (disk_id, lba + index)
            if key not in self._nvram:
                self._nvram_used += sector_size
            self._nvram[key] = padded[index * sector_size:
                                      (index + 1) * sector_size]
        self._last_activity = self.sim.now
        latency = self.sim.now - started
        self.stats.sync_writes.record(latency)
        return latency

    def _flush_nvram(self) -> Generator:
        """One large sequential write of the NVRAM contents to the
        cache disk's log tail."""
        if not self._nvram:
            return
        done = self.sim.event()
        self._flush_in_progress = done
        try:
            entries = sorted(self._nvram.items())
            payload = b"".join(sector for _key, sector in entries)
            total = self.cache_disk.geometry.total_sectors
            if self._cache_tail + len(entries) > total:
                self._cache_tail = 0  # wrap the log
            tail = self._cache_tail
            self._cache_tail += len(entries)
            yield self.cache_disk.write(tail, payload,
                                        priority=PRIORITY_WRITE)
            for index, (key, _sector) in enumerate(entries):
                stale = self._cache_map.pop(key, None)
                if stale is not None:
                    # Superseded cache copy: drop its destage entry.
                    self._destage_queue = [
                        entry for entry in self._destage_queue
                        if (entry[0], entry[1]) != key]
                self._cache_map[key] = tail + index
                self._destage_queue.append((key[0], key[1], tail + index))
            self._nvram.clear()
            self._nvram_used = 0
            self.stats.cache_disk_flushes += 1
        finally:
            self._flush_in_progress = None
            done.succeed()

    def _read(self, disk_id: int, lba: int, nsectors: int) -> Generator:
        sector_size = self.sector_size
        out = bytearray()
        for index in range(nsectors):
            key = (disk_id, lba + index)
            if key in self._nvram:
                self.stats.nvram_hits += 1
                out += self._nvram[key]
            elif key in self._cache_map:
                result = yield self.cache_disk.read(
                    self._cache_map[key], 1, priority=PRIORITY_READ)
                out += result.data
            else:
                result = yield self.data_disks[disk_id].read(
                    lba + index, 1, priority=PRIORITY_READ)
                out += result.data
        return bytes(out)

    def _destage_loop(self) -> Generator:
        """Move cache-disk blocks to their home locations when idle.

        Unlike Trail's write-back (which copies from host memory), DCD
        must *read the cache disk* first — the §2 cleaning-cost point.
        """
        try:
            while True:
                yield self.sim.timeout(self.destage_idle_ms)
                if not self._destage_queue:
                    continue
                if self.sim.now - self._last_activity \
                        < self.destage_idle_ms:
                    continue  # stay out of the foreground's way
                disk_id, lba, cache_lba = self._destage_queue.pop(0)
                if self._cache_map.get((disk_id, lba)) != cache_lba:
                    continue  # superseded while queued
                result = yield self.cache_disk.read(
                    cache_lba, 1, priority=PRIORITY_WRITE)
                self.stats.cache_disk_reads_for_destage += 1
                yield self.data_disks[disk_id].write(
                    lba, result.data, priority=PRIORITY_WRITE)
                self.stats.destaged_sectors += 1
                if self._cache_map.get((disk_id, lba)) == cache_lba:
                    del self._cache_map[(disk_id, lba)]
        except Interrupt:
            return

    def _check_disk(self, disk_id: int) -> None:
        if disk_id not in self.data_disks:
            raise TrailError(f"unknown data disk id {disk_id}")
