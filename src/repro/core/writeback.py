"""Asynchronous write-back from host memory to the data disks (§4.1-4.3).

Pending pages are written to their data disks *from the staging buffer,
not from the log disk* — the log disk's head never leaves the active
track, which is what preserves the write-where-the-head-is invariant.
Write-backs are issued at low priority so that data-disk reads, which
some application is synchronously waiting on, overtake them in each
drive's command queue.

Media faults on a data disk do not lose data: a failed write-back is
retried with exponential backoff, then its target sectors are
relocated to the drive's spares and retried once more; a page that
still cannot be written is parked in :attr:`failed_pages` — its data
stays pinned in the staging buffer (reads remain correct) and its log
records stay live (the log copy persists) — rather than being dropped
or wedging the drain loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Mapping, Optional, Tuple

from repro.blockdev import DataTarget
from repro.core.buffer import BufferManager, PageKey, PendingPage
from repro.disk.controller import PRIORITY_WRITE
from repro.errors import DiskHaltedError, MediaError, TrailError
from repro.sim import Event, Interrupt, Process, Simulation, Store
from repro.units import Ms

#: Retries of a write-back that failed with a media error, before its
#: target is relocated to spares.
RETRY_LIMIT = 4

#: Backoff before the first retry; it doubles per attempt.
RETRY_BASE_MS: Ms = 1.0


class WritebackScheduler:
    """Drains the pending-page queue onto the data disks."""

    def __init__(
        self,
        sim: Simulation,
        data_disks: Mapping[int, DataTarget],
        buffers: BufferManager,
    ) -> None:
        if not data_disks:
            raise TrailError("write-back scheduler needs >= 1 data disk")
        self.sim = sim
        self.data_disks = data_disks
        self.buffers = buffers
        self.queue: Store = Store(sim)
        # The sanitizer's wb-counters group, registered at the end of
        # WritebackScheduler.__init__ (_san_counter_probe/_judge).
        self.pages_written = 0
        self.sectors_written = 0
        #: Write attempts that failed with a media error and were retried.
        self.write_retries = 0
        #: Pages whose targets were relocated to spare sectors.
        self.pages_relocated = 0
        #: Write-backs paused before issue because the target
        #: advertised a ``writeback_defer_ms`` hint (duck-typed; a RAID
        #: array does so only while its rebuild is actively running).
        #: The page stays pinned and the log copy stays live for the
        #: paused interval, so nothing is lost by waiting.
        self.rebuild_deferrals = 0
        #: Pages parked after retries and relocation both failed; the
        #: staging-buffer copy remains authoritative for reads.
        self.failed_pages: Dict[PageKey, PendingPage] = {}
        #: Called (with no arguments) whenever the scheduler becomes
        #: quiescent; the driver uses it to wake ``flush()`` waiters.
        self.on_idle: Optional[Callable[[], None]] = None
        self._process: Optional[Process] = None

        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.add_transition(
                "wb-counters", self._san_counter_probe,
                self._san_counter_judge)

    def _san_counter_probe(self) -> "Tuple[object, ...]":
        return self.pages_written, self.sectors_written

    def _san_counter_judge(self, old: "Tuple[object, ...]",
                           new: "Tuple[object, ...]") -> Optional[str]:
        old_pages, old_sectors = old
        new_pages, new_sectors = new
        assert isinstance(old_pages, int) and isinstance(old_sectors, int)
        assert isinstance(new_pages, int) and isinstance(new_sectors, int)
        pages_delta = new_pages - old_pages
        sectors_delta = new_sectors - old_sectors
        if pages_delta < 0 or sectors_delta < 0:
            return None  # counters were reset; resynchronize silently
        if (pages_delta == 0) != (sectors_delta == 0):
            return (f"pages_written moved by {pages_delta} but "
                    f"sectors_written by {sectors_delta} in one atomic "
                    f"segment")
        if sectors_delta < pages_delta:
            return (f"{pages_delta} page(s) accounted only "
                    f"{sectors_delta} sector(s)")
        return None

    def start(self) -> Process:
        """Launch the background drain process."""
        if self._process is not None and self._process.is_alive:
            raise TrailError("write-back scheduler already running")
        self._process = self.sim.process(self._run(), name="trail-writeback")
        return self._process

    def stop(self) -> None:
        """Terminate the drain process (used by crash injection)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")
        self._process = None

    def drop_all(self) -> None:
        """Forget every queued and parked page (host memory lost in a
        power failure); the counters stay, as the buffer manager's do."""
        self.queue.drain()
        self.failed_pages.clear()

    def enqueue(self, page: PendingPage) -> None:
        """Queue ``page`` for write-back unless one is already queued."""
        if page.queued or page.in_flight:
            return
        # A re-write of a previously failed page gets a fresh chance:
        # the new data may land on remapped (healthy) sectors.
        self.failed_pages.pop(page.key, None)
        page.queued = True
        self.queue.put(page)

    @property
    def backlog(self) -> int:
        """Pages waiting in the write-back queue."""
        return len(self.queue)

    @property
    def quiescent(self) -> bool:
        """True when nothing more can be drained: the queue is empty
        and every pinned page is either committed or parked as failed."""
        return (len(self.queue) == 0
                and self.buffers.pending_pages == len(self.failed_pages))

    # ------------------------------------------------------------------

    def _run(self) -> Generator[Event, Any, None]:
        try:
            while True:
                page = yield self.queue.get()
                page.queued = False
                page.in_flight = True
                version = page.version
                data = page.data
                disk = self.data_disks.get(page.disk_id)
                if disk is None:
                    raise TrailError(
                        f"no data disk with id {page.disk_id}")
                # Rebuild contention: a reconstructing array asks each
                # write-back to pause before issuing, so survivor
                # bandwidth leans toward the copier.  One bounded pause
                # per page — never a wait-until-rebuilt loop — because
                # write-back is also what reclaims log space; stalling
                # it outright would fill the log and stall the
                # foreground writes the log is meant to absorb.
                defer = float(getattr(disk, "writeback_defer_ms", 0.0))
                if defer > 0:
                    self.rebuild_deferrals += 1
                    yield self.sim.timeout(defer)
                try:
                    written = yield from self._write_with_retries(
                        disk, page, data)
                except DiskHaltedError:
                    page.in_flight = False
                    return  # power failure: recovery will replay the log
                page.in_flight = False
                if not written:
                    # Retries and relocation exhausted: park the page.
                    # Pinned data and live log records keep it safe.
                    self.failed_pages[page.key] = page
                    self._notify_if_idle()
                    continue
                self.pages_written += 1
                self.sectors_written += page.nsectors
                fully_committed = self.buffers.committed(page, version)
                if not fully_committed and not page.queued:
                    # A newer version arrived while this one was in
                    # flight; it needs its own write-back.
                    page.queued = True
                    self.queue.put(page)
                self._notify_if_idle()
        except Interrupt:
            return

    def _write_with_retries(self, disk: DataTarget, page: PendingPage,
                            data: bytes) -> Generator[Event, Any, bool]:
        """One write-back with bounded backoff retries and relocation.

        Returns True once the write reaches the platter, False when the
        target is unwritable even after relocating it to spares.
        ``DiskHaltedError`` propagates (power failure is not a media
        fault).
        """
        backoff = RETRY_BASE_MS
        for attempt in range(RETRY_LIMIT + 1):
            try:
                yield disk.write(page.lba, data, priority=PRIORITY_WRITE)
                return True
            except DiskHaltedError:
                raise
            except MediaError:
                if attempt == RETRY_LIMIT:
                    break
                self.write_retries += 1
                yield self.sim.timeout(backoff)
                backoff *= 2
        # Persistently failing target: relocate its bad sectors to
        # spares and try once more.
        if disk.relocate(page.lba, page.nsectors) > 0:
            self.pages_relocated += 1
            try:
                yield disk.write(page.lba, data, priority=PRIORITY_WRITE)
                return True
            except DiskHaltedError:
                raise
            except MediaError:
                pass
        return False

    def _notify_if_idle(self) -> None:
        if self.on_idle is not None and self.quiescent:
            self.on_idle()
