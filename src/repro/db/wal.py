"""Write-ahead log over a block device.

Models a database log file opened with ``O_SYNC`` (the paper's setup):
records are serialized into an in-memory buffer and *forced* to a
circular on-disk region according to the commit policy.  Appends and
flushes are serialized by a latch, so while a (possibly large) group
flush is on the disk, every transaction that tries to append stalls —
the clustering effect Section 5.2 analyzes.

The number of flushes equals the paper's "number of group commits"
(Table 3), and the summed flush latencies are its "Disk I/O Time for
Logging" (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple, Union

from repro.baselines.group_commit import GroupCommitPolicy, SyncCommitPolicy
from repro.blockdev import BlockDevice
from repro.errors import DatabaseError
from repro.sim import Event, LatencyRecorder, Resource, Simulation

CommitPolicy = Union[SyncCommitPolicy, GroupCommitPolicy]


@dataclass
class WalStats:
    """Measurements of log-forcing behaviour."""

    #: Number of synchronous log forces (Table 3's "group commits").
    flushes: int = 0
    bytes_appended: int = 0
    bytes_flushed: int = 0
    #: Latency of each flush I/O; .total is Table 2's logging I/O time.
    flush_io: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(keep_samples=True))
    #: Time transactions spent stalled on the log latch.
    latch_wait_ms: float = 0.0

    @property
    def logging_io_ms(self) -> float:
        return self.flush_io.total


class WriteAheadLog:
    """A circular on-disk log with pluggable force policy."""

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        disk_id: int,
        start_lba: int,
        capacity_sectors: int,
        policy: CommitPolicy,
    ) -> None:
        if capacity_sectors < 8:
            raise DatabaseError(
                f"log region must be >= 8 sectors, got {capacity_sectors}")
        self.sim = sim
        self.device = device
        self.disk_id = disk_id
        self.start_lba = start_lba
        self.capacity_sectors = capacity_sectors
        self.policy = policy
        #: Hold the log latch across the flush I/O (Berkeley DB style:
        #: appends stall while the force is on disk — the paper's
        #: group-commit "I/O clustering").  When False, the latch only
        #: covers buffer snapshots, so concurrent commits issue
        #: concurrent forces that a Trail log disk batches together.
        #: Derived from the policy: latch for group commit, concurrent
        #: for sync forces.
        self.latch_during_flush = not policy.wait_for_durable
        self.stats = WalStats()

        self._latch = Resource(sim, capacity=1)
        self._buffer = bytearray()
        self._buffer_start_lsn = 0  # byte offset of _buffer[0]
        self._next_lsn = 0
        self._durable_lsn = 0
        #: Highest LSN included in any issued (possibly in-flight) flush.
        self._snapshot_lsn = 0
        #: Contents of the current partial tail sector: each force
        #: rewrites that sector whole, so the on-disk image stays a
        #: byte-exact projection of the LSN space (recovery scans it).
        self._tail_image = b""
        self._waiters: List[Tuple[int, Event]] = []

    # ------------------------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        """Highest byte offset known to be on disk."""
        return self._durable_lsn

    @property
    def buffered_bytes(self) -> int:
        """Bytes appended but not yet forced."""
        return len(self._buffer)

    @property
    def appended_lsn(self) -> int:
        """Total bytes ever appended (the next record's start LSN)."""
        return self._next_lsn

    def try_append(self, payload: bytes) -> Optional[int]:
        """Synchronous fast path: buffer ``payload``, return its end LSN.

        Returns None when the append must go through the latch or
        trigger a flush (caller falls back to :meth:`append_slow`).
        Costs zero kernel events — the hot path of every record update.
        """
        if not payload:
            raise DatabaseError("cannot append an empty log record")
        # Latch idleness read through the Resource internals: the
        # in_use/queue_length properties cost two frames and two len()
        # per append at record-update rates.
        latch = self._latch
        size = len(payload)
        if (not latch._holders and not latch._waiters
                and not self.policy.should_flush_on_append(
                    len(self._buffer) + size)):
            self._buffer.extend(payload)
            self._next_lsn = lsn = self._next_lsn + size
            self.stats.bytes_appended += size
            return lsn
        return None

    def append_slow(self, payload: bytes):
        """Latched/flushing append path (process; yield its event)."""
        return self.sim.process(self._append(payload), name="wal-append")

    def append(self, payload: bytes):
        """Append a record; the returned event's value is the record's
        end LSN.

        May stall on the log latch while a flush is in progress (the
        Berkeley DB behaviour the paper's "I/O clustering" analysis
        rests on), and may itself trigger a flush under a group-commit
        policy.  The uncontended no-flush path completes synchronously
        without spawning a process — it is the hot path of every record
        update.
        """
        lsn = self.try_append(payload)
        if lsn is not None:
            event = Event(self.sim)
            event.succeed(lsn)
            return event
        return self.sim.process(self._append(payload), name="wal-append")

    def _append(self, payload: bytes) -> Generator:
        token = self._latch.request()
        requested = self.sim.now
        yield token
        self.stats.latch_wait_ms += self.sim.now - requested
        self._buffer.extend(payload)
        self._next_lsn += len(payload)
        lsn = self._next_lsn
        self.stats.bytes_appended += len(payload)
        descriptor = None
        if self.policy.should_flush_on_append(len(self._buffer)):
            descriptor = self._snapshot()
            if self.latch_during_flush and descriptor is not None:
                yield from self._flush_io(descriptor)
                descriptor = None
        self._latch.release(token)
        if descriptor is not None:
            yield from self._flush_io(descriptor)
        return lsn

    def commit(self, lsn: int):
        """Run the policy's commit-time force; process value is the
        *durability event* for ``lsn``.

        The caller decides whether to wait on the durability event —
        sync policies do, group commit does not (that is the durability
        compromise).  A commit whose records are already covered by an
        in-flight force piggybacks on it instead of issuing its own.
        """
        return self.sim.process(self._commit(lsn), name="wal-commit")

    def _commit(self, lsn: int) -> Generator:
        durable = self.sim.event()
        if lsn <= self._durable_lsn:
            durable.succeed(self.sim.now)
            return durable
        self._waiters.append((lsn, durable))
        if lsn <= self._snapshot_lsn:
            return durable  # an in-flight force already covers us
        if self.policy.should_flush_on_commit(len(self._buffer)):
            token = self._latch.request()
            requested = self.sim.now
            yield token
            self.stats.latch_wait_ms += self.sim.now - requested
            descriptor = None
            if lsn > self._snapshot_lsn and lsn > self._durable_lsn:
                descriptor = self._snapshot()
                if self.latch_during_flush and descriptor is not None:
                    yield from self._flush_io(descriptor)
                    descriptor = None
            self._latch.release(token)
            if descriptor is not None:
                yield from self._flush_io(descriptor)
        return durable

    def force(self):
        """Unconditionally flush everything buffered (shutdown path)."""
        return self.sim.process(self._force(), name="wal-force")

    def _force(self) -> Generator:
        token = self._latch.request()
        yield token
        descriptor = self._snapshot()
        if self.latch_during_flush and descriptor is not None:
            yield from self._flush_io(descriptor)
            descriptor = None
        self._latch.release(token)
        if descriptor is not None:
            yield from self._flush_io(descriptor)

    # ------------------------------------------------------------------

    def _snapshot(self) -> Optional[Tuple[bytes, int, int, int]]:
        """Detach the buffered byte range for flushing (latch held).

        The returned payload is sector-aligned: if the range starts
        mid-sector, the already-durable head of that sector (kept in
        ``_tail_image``) is prepended so the rewrite preserves it.
        """
        if not self._buffer:
            return None
        data = bytes(self._buffer)
        start_lsn = self._buffer_start_lsn
        end_lsn = start_lsn + len(data)
        self._buffer.clear()
        self._buffer_start_lsn = end_lsn
        self._snapshot_lsn = max(self._snapshot_lsn, end_lsn)

        sector_size = self.device.sector_size
        head_offset = start_lsn % sector_size
        if head_offset:
            if len(self._tail_image) != head_offset:
                raise DatabaseError(
                    "internal: tail-sector image out of sync "
                    f"({len(self._tail_image)} != {head_offset})")
            data = self._tail_image + data
        aligned_start = start_lsn - head_offset
        padded_len = ((len(data) + sector_size - 1)
                      // sector_size) * sector_size
        padded = data + bytes(padded_len - len(data))
        tail_len = end_lsn % sector_size
        self._tail_image = (padded[padded_len - sector_size:
                                   padded_len - sector_size + tail_len]
                            if tail_len else b"")
        return padded, aligned_start, end_lsn, len(self._buffer)

    def _flush_io(self, descriptor: Tuple[bytes, int, int, int]) -> Generator:
        """Write a detached, sector-aligned byte range to the region.

        Completions arrive in issue order (every force goes through the
        same device queue at equal priority), so ``_durable_lsn`` only
        ever moves forward over fully persisted prefixes.
        """
        padded, aligned_start, end_lsn, _unused = descriptor
        sector_size = self.device.sector_size
        capacity = self.capacity_sectors
        start_sector = (aligned_start // sector_size) % capacity

        flush_start = self.sim.now
        offset = 0
        sector = start_sector
        padded_len = len(padded)
        device_write = self.device.write
        start_lba = self.start_lba
        disk_id = self.disk_id
        while offset < padded_len:
            room = (capacity - sector) * sector_size
            chunk = padded[offset:offset + room]
            yield device_write(start_lba + sector, chunk,
                               disk_id=disk_id)
            offset += len(chunk)
            sector = 0  # wrapped
        self.stats.flushes += 1
        self.stats.bytes_flushed += end_lsn - aligned_start
        self.stats.flush_io.record(self.sim.now - flush_start)

        durable_lsn = self._durable_lsn = max(self._durable_lsn, end_lsn)
        still_waiting: List[Tuple[int, Event]] = []
        keep = still_waiting.append
        now = self.sim.now
        for lsn, event in self._waiters:
            if lsn <= durable_lsn:
                if not event.triggered:
                    event.succeed(now)
            else:
                keep((lsn, event))
        self._waiters = still_waiting
