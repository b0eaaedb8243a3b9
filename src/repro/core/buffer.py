"""The Trail driver's staging-buffer manager (§4.2).

Disk blocks that have been written to the log disk but not yet to their
data disk are pinned in host memory.  The manager implements the
paper's three buffer-page rules:

* **Immediate unlock** — a page is writable again as soon as its log
  write completes; a later write to the same page simply produces a new
  pinned version.
* **Queue dedup** — at most one write-back per page is queued at a
  time; newer versions piggyback on the queued entry, and the buffers
  of skipped requests are released.
* **Cancellation** — a data-disk write for a page that has been
  re-modified since its log write is cancelled; the newest version is
  written instead, and when it commits, *all* log records holding older
  versions of the page are released at once ("one or multiple log disk
  tracks ... may be reclaimed simultaneously").

Record bookkeeping lives here too: a :class:`LiveRecord` counts how
many of its logged sectors' pages remain uncommitted, and fires the
driver's release callback (which frees log-disk space and advances the
log head) when it hits zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TrailError
from repro.units import Lba, LogLba, Sectors, Tracks


#: Identifies one buffered page: (data disk id, first LBA, sector count).
PageKey = Tuple[int, int, int]


@dataclass
class LiveRecord:
    """A write record on the log disk that is not yet fully committed."""

    sequence_id: int
    track: Tracks
    header_lba: LogLba
    nsectors: Sectors
    #: Pages (with their logged versions) this record still waits on.
    outstanding: int = 0
    released: bool = False


@dataclass
class PendingPage:
    """The newest uncommitted contents of one data-disk page."""

    key: PageKey
    data: bytes
    version: int = 0
    #: True while a write-back for this page sits in the queue.
    queued: bool = False
    #: True while a write-back for this page is being serviced.
    in_flight: bool = False
    #: (record, version at the time that record logged this page).
    references: List[Tuple[LiveRecord, int]] = field(default_factory=list)

    @property
    def disk_id(self) -> int:
        return self.key[0]

    @property
    def lba(self) -> Lba:
        return self.key[1]

    @property
    def nsectors(self) -> Sectors:
        return self.key[2]


class BufferManager:
    """Pins logged-but-uncommitted pages and tracks record liveness."""

    def __init__(
        self,
        on_record_released: Optional[Callable[[LiveRecord], None]] = None,
    ) -> None:
        self._pages: Dict[PageKey, PendingPage] = {}  # trailsan: atomic_group(pinned-accounting)
        #: Per-disk view of ``_pages`` (same insertion order), so the
        #: read-overlay scan in :meth:`find_covering` walks one disk's
        #: pinned pages instead of every disk's.
        self._by_disk: Dict[int, Dict[PageKey, PendingPage]] = {}
        #: Per-disk pinned-coverage refcount per sector, so a read that
        #: overlaps no pinned page (the common case) is rejected with a
        #: few dict probes instead of scanning every pinned page.
        self._cover: Dict[int, Dict[int, int]] = {}
        self._on_record_released = on_record_released
        self.pinned_bytes = 0  # trailsan: atomic_group(pinned-accounting)
        #: Write-backs skipped because a newer version superseded them.
        self.writes_cancelled = 0
        #: Queue entries saved by dedup.
        self.writes_deduplicated = 0

    def accounting_error(self) -> Optional[str]:
        """None when ``pinned_bytes`` matches the pinned pages, else a
        description of the drift (the TRAILSAN pinned-accounting
        invariant)."""
        actual = 0
        for page in self._pages.values():
            actual += len(page.data)
        if actual != self.pinned_bytes:
            return (f"pinned_bytes={self.pinned_bytes} but the "
                    f"{len(self._pages)} pinned page(s) hold {actual} "
                    f"bytes")
        return None

    # ------------------------------------------------------------------
    # Introspection

    @property
    def pending_pages(self) -> int:
        """Number of distinct pages awaiting write-back."""
        return len(self._pages)

    def get_cached(self, disk_id: int, lba: Lba,
                   nsectors: Sectors) -> Optional[bytes]:
        """Serve a read from the pinned set if a page covers it exactly.

        The driver services reads "from the Trail driver's buffer
        memory" when possible (§4.3); partial overlaps fall through to
        the data disk.
        """
        page = self._pages.get((disk_id, lba, nsectors))
        if page is not None:
            return page.data
        return None

    def find_covering(self, disk_id: int, lba: Lba,
                      nsectors: Sectors) -> List[PendingPage]:
        """All pinned pages overlapping the extent (for read overlay)."""
        disk_pages = self._by_disk.get(disk_id)
        if not disk_pages:
            return []
        end = lba + nsectors
        cover = self._cover.get(disk_id)
        if cover is None or all(sector not in cover
                                for sector in range(lba, end)):
            return []
        return [
            page for (_disk, page_lba, page_ns), page in disk_pages.items()
            if page_lba < end and lba < page_lba + page_ns
        ]

    # ------------------------------------------------------------------
    # Write path

    def pin(
        self,
        disk_id: int,
        lba: Lba,
        data: bytes,
        sector_size: int,
    ) -> Tuple[PendingPage, int]:
        """Pin ``data`` as the newest version of page ``(disk_id, lba)``.

        Called once per logical write request when its (first) log write
        completes.  Returns the page and the new version number; the
        caller then :meth:`attach`\\ es every log record that carries a
        piece of this version.
        """
        nsectors = max(1, (len(data) + sector_size - 1) // sector_size)
        key: PageKey = (disk_id, lba, nsectors)
        page = self._pages.get(key)
        if page is None:
            page = PendingPage(key=key, data=bytes(data))
            self._pages[key] = page
            self._by_disk.setdefault(disk_id, {})[key] = page
            cover = self._cover.setdefault(disk_id, {})
            cover_get = cover.get
            for sector in range(lba, lba + nsectors):
                cover[sector] = cover_get(sector, 0) + 1
            self.pinned_bytes += len(data)
        else:
            # Re-pinning may change the byte length within the same
            # sector count; the accounting must track the bytes that
            # committed() will eventually subtract.
            self.pinned_bytes += len(data) - len(page.data)
            page.data = bytes(data)
            if page.queued or page.in_flight:
                self.writes_deduplicated += 1
        page.version += 1
        return page, page.version

    def attach(
        self, record: LiveRecord, page: PendingPage, version: int,
    ) -> None:
        """Tie ``record`` to ``page``'s ``version``.

        The record stays live (its log track stays used) until a
        write-back at or above that version commits.
        """
        if self._pages.get(page.key) is not page:
            raise TrailError(f"attach() to unpinned page {page.key}")
        page.references.append((record, version))
        record.outstanding += 1

    # ------------------------------------------------------------------
    # Commit path (called by the write-back scheduler)

    def committed(self, page: PendingPage, version: int) -> bool:
        """A write-back of ``page`` at ``version`` reached the data disk.

        Releases every record reference at or below ``version``.
        Returns True if the page is fully committed (no newer version
        pending) and has been dropped from the pinned set; False if a
        newer version still needs a write-back.
        """
        if self._pages.get(page.key) is not page:
            raise TrailError(f"committed() for unknown page {page.key}")
        # In the common case every reference releases; reuse the list in
        # place and only allocate ``remaining`` when something survives.
        references = page.references
        remaining: Optional[List[Tuple[LiveRecord, int]]] = None
        for record, logged_version in references:
            if logged_version <= version:
                self._release_reference(record)
                if logged_version < version:
                    # An older logged copy was superseded before it ever
                    # reached the data disk: the paper's cancelled write.
                    self.writes_cancelled += 1
            else:
                if remaining is None:
                    remaining = []
                remaining.append((record, logged_version))
        if remaining is None:
            references.clear()
        else:
            page.references = remaining
        if remaining is None and page.version <= version:
            disk_id, lba, nsectors = page.key
            del self._pages[page.key]
            del self._by_disk[disk_id][page.key]
            cover = self._cover[disk_id]
            for sector in range(lba, lba + nsectors):
                count = cover[sector] - 1
                if count:
                    cover[sector] = count
                else:
                    del cover[sector]
            self.pinned_bytes -= len(page.data)
            return True
        return False

    def _release_reference(self, record: LiveRecord) -> None:
        if record.outstanding <= 0:
            raise TrailError(
                f"record {record.sequence_id} over-released")
        record.outstanding -= 1
        if record.outstanding == 0 and not record.released:
            record.released = True
            if self._on_record_released is not None:
                self._on_record_released(record)

    # ------------------------------------------------------------------
    # Crash modelling

    def drop_all(self) -> None:
        """Forget every pinned page (host memory lost in a power failure)."""
        self._pages.clear()
        self._by_disk.clear()
        self._cover.clear()
        self.pinned_bytes = 0
