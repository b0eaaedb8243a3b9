"""A transaction-processing engine in the spirit of the paper's
Berkeley DB setup: record-level two-phase locking, a buffer pool for
table pages, and a write-ahead log forced according to a commit policy.

The engine is storage-agnostic: tables declare a record size and an
expected row count, get a contiguous LBA extent on a data disk, and
map record indexes to pages.  Domain logic (TPC-C) keeps its own row
values and calls the engine for the parts that cost time — locks,
page I/O, CPU, and logging.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.blockdev import BlockDevice
from repro.db.locks import LockManager, LockMode
from repro.db.pages import BufferPool
from repro.db.wal import WriteAheadLog
from repro.errors import DatabaseError, TransactionAborted
from repro.sim import Simulation

#: Per-record log header: tx id, table id, record index, payload length.
_LOG_RECORD_HEADER = struct.Struct("<IHII")
#: Commit marker appended at transaction commit.
_COMMIT_MARKER = struct.Struct("<I4s")


@dataclass(frozen=True)
class TableSpec:
    """Static description of a table."""

    name: str
    record_bytes: int
    max_rows: int
    disk_id: int

    def __post_init__(self) -> None:
        if self.record_bytes < 1:
            raise DatabaseError(
                f"record size must be >= 1 byte, got {self.record_bytes}")
        if self.max_rows < 1:
            raise DatabaseError(
                f"max_rows must be >= 1, got {self.max_rows}")


class Table:
    """A table's physical placement: records packed into pages."""

    __slots__ = ("table_id", "spec", "start_lba", "page_sectors",
                 "records_per_page", "page_count", "max_rows")

    def __init__(self, table_id: int, spec: TableSpec, start_lba: int,
                 page_sectors: int, sector_size: int) -> None:
        self.table_id = table_id
        self.spec = spec
        self.start_lba = start_lba
        self.page_sectors = page_sectors
        #: Mirrored from the spec: the bounds check in :meth:`page_of`
        #: is on the per-record hot path, and a slot load beats the
        #: dataclass attribute chain.
        self.max_rows = spec.max_rows
        page_bytes = page_sectors * sector_size
        self.records_per_page = max(1, page_bytes // spec.record_bytes)
        self.page_count = (spec.max_rows + self.records_per_page - 1) \
            // self.records_per_page

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def disk_id(self) -> int:
        return self.spec.disk_id

    @property
    def extent_sectors(self) -> int:
        return self.page_count * self.page_sectors

    def page_of(self, index: int) -> int:
        """First LBA of the page holding record ``index``."""
        if index < 0 or index >= self.max_rows:
            raise DatabaseError(
                f"record index {index} out of range for {self.name} "
                f"(max_rows={self.max_rows})")
        return self.start_lba + (index // self.records_per_page) \
            * self.page_sectors


class Transaction:
    """One in-flight transaction."""

    __slots__ = ("tx_id", "started_at", "last_lsn", "active", "engine",
                 "cpu_debt")

    def __init__(self, engine: "TransactionEngine") -> None:
        self.tx_id = next(engine._tx_ids)
        self.engine = engine
        self.started_at = engine.sim.now
        #: End LSN of this transaction's most recent log record.
        self.last_lsn = 0
        #: Accumulated CPU charge (ms) not yet slept off.  Record
        #: accesses on the warm path bank their per-op CPU cost here
        #: and the engine pays the whole run in one timeout at the next
        #: blocking point (miss, contention, commit) — one kernel event
        #: per burst instead of one per access.
        self.cpu_debt = 0.0
        self.active = True

    def _check_active(self) -> None:
        if not self.active:
            raise DatabaseError(f"transaction {self.tx_id} is finished")


@dataclass
class EngineStats:
    """Transaction outcome counters."""

    committed: int = 0
    aborted: int = 0
    log_records: int = 0


class TransactionEngine:
    """Locks + pages + WAL glued into begin/access/commit primitives."""

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        wal: WriteAheadLog,
        pool: BufferPool,
        lock_manager: Optional[LockManager] = None,
        cpu_ms_per_op: float = 0.05,
    ) -> None:
        self.sim = sim
        self.device = device
        self.wal = wal
        self.pool = pool
        self.locks = lock_manager or LockManager(sim)
        self.cpu_ms_per_op = cpu_ms_per_op
        self.stats = EngineStats()
        #: Transaction ids land in WAL bytes, so they are numbered per
        #: engine: a run's log never depends on what ran before it.
        self._tx_ids = itertools.count(1)
        self._tables: Dict[str, Table] = {}
        self._next_lba_by_disk: Dict[int, int] = {}
        #: Cached all-zero after-image payloads keyed by length, so the
        #: per-update WAL encode reuses one bytes object per record
        #: size instead of allocating ~600 B of zeros per log record.
        self._zero_payloads: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Schema

    def create_table(self, spec: TableSpec, start_lba: Optional[int] = None) -> Table:
        """Allocate a table extent on its data disk."""
        if spec.name in self._tables:
            raise DatabaseError(f"table {spec.name!r} already exists")
        if start_lba is None:
            start_lba = self._next_lba_by_disk.get(spec.disk_id, 0)
        table = Table(len(self._tables), spec, start_lba,
                      self.pool.page_sectors, self.device.sector_size)
        self._next_lba_by_disk[spec.disk_id] = (start_lba
                                                + table.extent_sectors)
        self._tables[spec.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        table = self._tables.get(name)
        if table is None:
            raise DatabaseError(f"no table named {name!r}")
        return table

    # ------------------------------------------------------------------
    # Transaction lifecycle

    def begin(self) -> Transaction:
        """Start a new transaction."""
        return Transaction(self)

    def read_record(self, tx: Transaction, table: Table,
                    index: int) -> Generator:
        """S-lock and fetch the record's page (``yield from`` the result)."""
        return self._access(tx, table, index, LockMode.SHARED, None)

    def write_record(self, tx: Transaction, table: Table, index: int,
                     payload_bytes: Optional[int] = None) -> Generator:
        """X-lock, dirty the record's page, and buffer a log record.

        ``payload_bytes`` defaults to the table's record size (a full
        after-image).  The log record carries twice that: Berkeley
        DB-style physical logging stores both the before and after
        images of each modified record.
        """
        if payload_bytes is None:
            payload_bytes = table.spec.record_bytes
        return self._access(tx, table, index, LockMode.EXCLUSIVE,
                            payload_bytes * 2)

    def _access(self, tx: Transaction, table: Table, index: int,
                mode: LockMode, payload: Optional[int]) -> Generator:
        """Lock, page, CPU and (for updates) log record of one access.

        ``payload`` is the log record's payload size, None for a read.
        Every step first tries its synchronous probe; a warm access —
        uncontended lock, resident page, unlatched WAL with room —
        yields nothing and costs zero kernel events.  A step that must
        block first sleeps off the CPU the transaction banked on its
        warm accesses, in one timeout.
        """
        if not tx.active:
            tx._check_active()
        write = payload is not None
        if not self.locks.try_acquire(tx, (table.table_id, index), mode):
            if tx.cpu_debt:
                yield self.sim.timeout(tx.cpu_debt)
                tx.cpu_debt = 0.0
            yield self.locks.acquire_slow(tx, (table.table_id, index), mode)
        if index < 0 or index >= table.max_rows:
            table.page_of(index)  # raises the out-of-range DatabaseError
        page_lba = table.start_lba \
            + (index // table.records_per_page) * table.page_sectors
        if self.pool.try_fetch(table.disk_id, page_lba, write) is None:
            if tx.cpu_debt:
                yield self.sim.timeout(tx.cpu_debt)
                tx.cpu_debt = 0.0
            yield self.pool.fetch_miss(table.disk_id, page_lba, write)
        tx.cpu_debt += self.cpu_ms_per_op
        if not write:
            return
        # Berkeley DB-style: log records enter the shared log buffer as
        # the update happens, not at commit.  Under concurrency a force
        # therefore carries other transactions' records too — which is
        # what makes group flushes (and Trail's batched log writes)
        # grow with the multiprogramming level (§5.2).
        record = self.encode_log_record(tx.tx_id, table.table_id, index,
                                        payload)
        self.stats.log_records += 1
        lsn = self.wal.try_append(record)
        if lsn is None:
            if tx.cpu_debt:
                yield self.sim.timeout(tx.cpu_debt)
                tx.cpu_debt = 0.0
            lsn = yield self.wal.append_slow(record)
        tx.last_lsn = lsn

    def encode_log_record(self, tx_id: int, table_id: int, index: int,
                          payload: int) -> bytes:
        """Encode one update record: header plus ``payload`` zero bytes.

        Byte-for-byte identical to the original
        ``header.pack(...) + bytes(payload)`` encoder (a unit test pins
        this); the zero after-image is pulled from a per-size cache.
        """
        zeros = self._zero_payloads.get(payload)
        if zeros is None:
            zeros = self._zero_payloads[payload] = bytes(payload)
        return _LOG_RECORD_HEADER.pack(tx_id, table_id, index,
                                       payload) + zeros

    def commit(self, tx: Transaction) -> Generator:
        """Commit: log force per policy; returns the durability event.

        Under a sync policy this generator completes only when the
        transaction is durable.  Under group commit it completes as soon
        as the records are buffered (the durability compromise) and the
        caller can wait on the returned event to measure the true
        response time.
        """
        tx._check_active()
        if tx.cpu_debt:
            # Pay off the banked per-access CPU before the commit force.
            yield self.sim.timeout(tx.cpu_debt)
            tx.cpu_debt = 0.0
        lsn = yield self.wal.append(_COMMIT_MARKER.pack(tx.tx_id, b"CMT!"))
        durable = yield self.wal.commit(lsn)
        if self.wal.policy.wait_for_durable:
            yield durable
        self._finish(tx)
        self.stats.committed += 1
        return durable

    def abort(self, tx: Transaction) -> None:
        """Roll back: drop buffered log records and release locks."""
        if not tx.active:
            return
        self._finish(tx)
        self.stats.aborted += 1

    def _finish(self, tx: Transaction) -> None:
        tx.active = False
        self.locks.release_all(tx)

    def run_transaction(self, body, max_retries: int = 5) -> Generator:
        """Execute ``body(tx)`` (a generator) with abort/retry.

        Deadlock victims (:class:`DeadlockError`) are retried up to
        ``max_retries`` times with backoff; any other
        :class:`TransactionAborted` (e.g. a workload-intended rollback)
        is aborted and re-raised.  Returns ``(durable_event, attempts)``.
        """
        from repro.errors import DeadlockError
        attempts = 0
        abort = self.abort
        while True:
            attempts += 1
            tx = self.begin()
            try:
                yield from body(tx)
                durable = yield from self.commit(tx)
                return durable, attempts
            except DeadlockError:
                abort(tx)
                if attempts > max_retries:
                    raise
                # Brief backoff so the other party can finish.
                yield self.sim.timeout(1.0 * attempts)
            except TransactionAborted:
                abort(tx)
                raise
