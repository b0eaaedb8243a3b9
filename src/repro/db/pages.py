"""Database buffer pool over a block device.

Fetches are LRU-cached; misses cost a real device read.  Dirty pages
are written back by a background flusher (like the kernel's pdflush in
the paper's setup) so that evictions rarely stall a transaction, but an
eviction that does hit a dirty page pays the write.  The pool only
tracks page *identity and state* — row contents live in the table
storage — because what the TPC-C reproduction needs from the pool is
its I/O traffic, not its bytes.

Hot-path notes (see docs/PERFORMANCE.md): a cache hit is served
synchronously by :meth:`BufferPool.try_fetch` with no kernel event at
all — the event-returning :meth:`fetch` survives for callers that want
to ``yield`` unconditionally.  Dirty frames are indexed in insertion
order in a side dict so the background flusher is O(batch) per wakeup
instead of scanning every resident frame, and frames carry a pin
count so pages in active use are never evicted mid-access.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.blockdev import BlockDevice
from repro.errors import DatabaseError
from repro.sim import Event, Interrupt, Process, Resource, Simulation

#: Identifies a page: (data disk id, first LBA).
PageId = Tuple[int, int]


@dataclass
class PoolStats:
    """Hit/miss and write-back counters."""

    hits: int = 0
    misses: int = 0
    dirty_evictions: int = 0
    background_writes: int = 0
    #: Evictions skipped because the victim frame was pinned.
    pinned_skips: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Frame:
    __slots__ = ("page_id", "nsectors", "dirty", "pins")

    def __init__(self, page_id: PageId, nsectors: int) -> None:
        self.page_id = page_id
        self.nsectors = nsectors
        self.dirty = False
        self.pins = 0


class BufferPool:
    """Fixed-capacity LRU page cache with background write-back."""

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        capacity_pages: int,
        page_sectors: int = 8,
        flush_interval_ms: float = 50.0,
        flush_batch: int = 16,
    ) -> None:
        if capacity_pages < 1:
            raise DatabaseError(
                f"pool capacity must be >= 1 page, got {capacity_pages}")
        self.sim = sim
        self.device = device
        self.capacity_pages = capacity_pages
        self.page_sectors = page_sectors
        self.page_bytes = page_sectors * device.sector_size
        self.flush_interval_ms = flush_interval_ms
        self.flush_batch = flush_batch
        self.stats = PoolStats()
        self._frames: "OrderedDict[PageId, _Frame]" = OrderedDict()
        #: Dirty frames in the order they were dirtied; the flusher and
        #: checkpoints pop from here instead of scanning ``_frames``.
        self._dirty: "OrderedDict[PageId, _Frame]" = OrderedDict()
        #: Reused all-zero page payload for write-back I/O (the pool
        #: models traffic, not contents, so every page write is zeros).
        self._zero_page = bytes(self.page_bytes)
        self._io_lock = Resource(sim, capacity=1)
        self._flusher: Optional[Process] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the background dirty-page flusher."""
        if self._flusher is not None and self._flusher.is_alive:
            raise DatabaseError("flusher already running")
        if self.flush_interval_ms > 0:
            self._flusher = self.sim.process(self._flush_loop(),
                                             name="pool-flusher")

    def stop(self) -> None:
        """Stop the background flusher (shutdown or crash)."""
        if self._flusher is not None and self._flusher.is_alive:
            self._flusher.interrupt("stop")
        self._flusher = None

    @property
    def dirty_pages(self) -> int:
        """Number of dirty frames currently cached."""
        return len(self._dirty)

    @property
    def resident_pages(self) -> int:
        """Number of frames currently cached."""
        return len(self._frames)

    def try_fetch(self, disk_id: int, lba: int,
                  dirty: bool = False) -> Optional[_Frame]:
        """Synchronous fast path: return the frame on a cache hit.

        Returns None on a miss — the caller then yields
        :meth:`fetch_miss`.  A hit costs zero kernel events, which is
        what every warm TPC-C record access hits.
        """
        frames = self._frames
        page_id = (disk_id, lba)
        frame = frames.get(page_id)
        if frame is None:
            return None
        frames.move_to_end(page_id)
        self.stats.hits += 1
        if dirty and not frame.dirty:
            frame.dirty = True
            self._dirty[page_id] = frame
        return frame

    def fetch_miss(self, disk_id: int, lba: int, dirty: bool = False):
        """Miss path: spawn the fetch process (evict + device read)."""
        self.stats.misses += 1
        return self.sim.process(self._fetch_miss(disk_id, lba, dirty),
                                name=f"pool-fetch@{lba}")

    def fetch(self, disk_id: int, lba: int, dirty: bool = False):
        """Access one page; yield the returned event for the frame.

        ``dirty=True`` marks the page modified (caller will log the
        change through the WAL; the page itself reaches disk via the
        flusher or eviction).  Cache hits return an already-fired event
        (no process spawn — this is every warm TPC-C access).
        """
        frame = self.try_fetch(disk_id, lba, dirty)
        if frame is not None:
            event = Event(self.sim)
            event.succeed(frame)
            return event
        return self.fetch_miss(disk_id, lba, dirty)

    def _fetch_miss(self, disk_id: int, lba: int, dirty: bool) -> Generator:
        page_id: PageId = (disk_id, lba)
        frame = self._frames.get(page_id)
        if frame is not None:
            # Raced with a concurrent fetch of the same page.
            self._frames.move_to_end(page_id)
            if dirty and not frame.dirty:
                frame.dirty = True
                self._dirty[page_id] = frame
            return frame
        yield from self._make_room()
        yield self.device.read(lba, self.page_sectors, disk_id=disk_id)
        frame = self._frames.get(page_id)
        if frame is None:
            frame = _Frame(page_id, self.page_sectors)
            self._frames[page_id] = frame
        if dirty and not frame.dirty:
            frame.dirty = True
            self._dirty[page_id] = frame
        self._frames.move_to_end(page_id)
        return frame

    def _make_room(self) -> Generator:
        frames = self._frames
        while len(frames) >= self.capacity_pages:
            victim_id = None
            # LRU order with pinned frames skipped; a fully pinned pool
            # is a caller bug surfaced as DatabaseError rather than an
            # infinite loop.
            for page_id, frame in frames.items():
                if frame.pins == 0:
                    victim_id = page_id
                    victim = frame
                    break
                self.stats.pinned_skips += 1
            if victim_id is None:
                raise DatabaseError(
                    "buffer pool exhausted: every frame is pinned")
            if victim.dirty:
                self.stats.dirty_evictions += 1
                victim.dirty = False
                self._dirty.pop(victim_id, None)
                yield self.device.write(
                    victim_id[1], self._zero_page, disk_id=victim_id[0])
            frames.pop(victim_id, None)

    # ------------------------------------------------------------------
    # Pinning

    def pin(self, disk_id: int, lba: int) -> None:
        """Pin a resident page so eviction skips it.

        Pins are cheap reference counts on the frame; callers pair
        every pin with an :meth:`unpin`.  Pinning a non-resident page
        is an error — fetch it first.
        """
        frame = self._frames.get((disk_id, lba))
        if frame is None:
            raise DatabaseError(
                f"cannot pin non-resident page ({disk_id}, {lba})")
        frame.pins += 1

    def unpin(self, disk_id: int, lba: int) -> None:
        """Drop one pin from a resident page."""
        frame = self._frames.get((disk_id, lba))
        if frame is None:
            raise DatabaseError(
                f"cannot unpin non-resident page ({disk_id}, {lba})")
        if frame.pins <= 0:
            raise DatabaseError(
                f"unpin without pin on page ({disk_id}, {lba})")
        frame.pins -= 1

    def pinned_pages(self) -> int:
        """Number of frames with at least one pin."""
        return sum(1 for frame in self._frames.values() if frame.pins > 0)

    # ------------------------------------------------------------------

    def preload(self, disk_id: int, lba: int) -> bool:
        """Install a clean resident frame without I/O (cache warm-up).

        Stands in for the paper's 200,000 warm-up transactions: marks a
        page resident as if it had been read already.  Returns False
        (and does nothing) once the pool is full.
        """
        if len(self._frames) >= self.capacity_pages:
            return False
        page_id: PageId = (disk_id, lba)
        if page_id not in self._frames:
            self._frames[page_id] = _Frame(page_id, self.page_sectors)
        return True

    def preload_extent(self, disk_id: int, start_lba: int,
                       page_count: int) -> int:
        """Preload ``page_count`` consecutive pages starting at a page
        boundary; returns how many became resident before the pool
        filled.  One bounds check per extent instead of per page.
        """
        frames = self._frames
        page_sectors = self.page_sectors
        #: Free-frame budget tracked as a counter: one len() per extent
        #: rather than one per page (warm-up preloads thousands).
        room = self.capacity_pages - len(frames)
        new_frame = _Frame.__new__
        loaded = 0
        lba = start_lba
        for _ in range(page_count):
            if room <= 0:
                break
            page_id = (disk_id, lba)
            if page_id not in frames:
                frame = new_frame(_Frame)
                frame.page_id = page_id
                frame.nsectors = page_sectors
                frame.dirty = False
                frame.pins = 0
                frames[page_id] = frame
                loaded += 1
                room -= 1
            lba += page_sectors
        return loaded

    def flush_all(self) -> Generator:
        """Write every dirty page (checkpoint / clean shutdown)."""
        while self._dirty:
            page_id, frame = self._dirty.popitem(last=False)
            frame.dirty = False
            yield self.device.write(page_id[1], self._zero_page,
                                    disk_id=page_id[0])
            self.stats.background_writes += 1

    def _flush_loop(self) -> Generator:
        """Push dirty pages in concurrent batches.

        Like the kernel's flush daemon, a whole batch is submitted to
        the device queues at once — which is what makes foreground
        reads queue behind writes on a standard driver, and what
        Trail's read-priority scheduling exists to avoid.  The dirty
        index makes each wakeup O(batch), not O(resident frames).
        """
        dirty = self._dirty
        try:
            while True:
                yield self.sim.timeout(self.flush_interval_ms)
                if not dirty:
                    continue
                batch = []
                for _ in range(min(self.flush_batch, len(dirty))):
                    page_id, frame = dirty.popitem(last=False)
                    frame.dirty = False
                    batch.append(page_id)
                writes = [
                    self.device.write(lba, self._zero_page, disk_id=disk_id)
                    for disk_id, lba in batch
                ]
                self.stats.background_writes += len(writes)
                yield self.sim.all_of(writes)
        except Interrupt:
            return
