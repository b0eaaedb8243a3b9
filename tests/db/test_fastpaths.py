"""Unit tests pinning the DB fast paths added by the perf work.

Three hot paths got synchronous shortcuts that bypass the kernel:
``LockManager.try_acquire``, ``BufferPool.try_fetch`` (+ pin/unpin
accounting the evictor relies on), and the preallocated-buffer WAL
record encoder.  Each shortcut must behave exactly like the slow path
it shadows — these tests hold them to that.
"""

import dataclasses
import hashlib
import struct

import pytest

from repro.baselines.group_commit import GroupCommitPolicy, SyncCommitPolicy
from repro.baselines.standard import StandardDriver
from repro.db.engine import TableSpec, TransactionEngine
from repro.db.locks import LockManager, LockMode
from repro.db.pages import BufferPool
from repro.db.wal import WriteAheadLog
from repro.errors import DatabaseError, DeadlockError
from repro.sim import Simulation
from tests.conftest import drive_to_completion, make_tiny_drive


def make_pool(sim, capacity_pages=4):
    disk = make_tiny_drive(sim, "tab", cylinders=40, heads=2,
                           sectors_per_track=16)
    device = StandardDriver(sim, {0: disk})
    return BufferPool(sim, device, capacity_pages=capacity_pages,
                      page_sectors=4, flush_interval_ms=0.0)


def fetch(sim, pool, lba, dirty=False):
    def body():
        frame = yield pool.fetch(0, lba, dirty=dirty)
        return frame
    return drive_to_completion(sim, body())


class TestLockQueueOrdering:
    """The synchronous grant path must never jump the FIFO queue."""

    def test_try_acquire_grants_uncontended(self, sim):
        manager = LockManager(sim)
        assert manager.try_acquire("a", "r", LockMode.SHARED)
        assert manager.try_acquire("b", "r", LockMode.SHARED)
        assert manager.stats.acquisitions == 2
        assert manager.stats.waits == 0

    def test_try_acquire_refuses_conflicts(self, sim):
        manager = LockManager(sim)
        assert manager.try_acquire("a", "r", LockMode.EXCLUSIVE)
        assert not manager.try_acquire("b", "r", LockMode.SHARED)
        assert not manager.try_acquire("b", "r", LockMode.EXCLUSIVE)

    def test_try_acquire_is_reentrant(self, sim):
        manager = LockManager(sim)
        assert manager.try_acquire("a", "r", LockMode.EXCLUSIVE)
        # X covers a later S request from the same owner, and repeats.
        assert manager.try_acquire("a", "r", LockMode.SHARED)
        assert manager.try_acquire("a", "r", LockMode.EXCLUSIVE)

    def test_compatible_request_queues_behind_waiters(self, sim):
        """S after a queued X must wait: granting it synchronously
        would starve the earlier exclusive waiter."""
        manager = LockManager(sim, deadlock_timeout_ms=10_000.0)
        assert manager.try_acquire("holder", "r", LockMode.SHARED)
        manager.acquire("writer", "r", LockMode.EXCLUSIVE)
        sim.run(until=1.0)
        # The writer now waits; a shared request is mode-compatible
        # with the *holders* but must still refuse the fast path.
        assert not manager.try_acquire("late", "r", LockMode.SHARED)

    def test_contended_grants_are_fifo(self, sim):
        manager = LockManager(sim, deadlock_timeout_ms=10_000.0)
        order = []

        def holder():
            yield manager.acquire("holder", "r", LockMode.EXCLUSIVE)
            yield sim.timeout(5.0)
            manager.release_all("holder")

        def waiter(name, mode):
            yield manager.acquire(name, "r", mode)
            order.append(name)
            yield sim.timeout(1.0)
            manager.release_all(name)

        sim.process(holder())
        sim.run(until=1.0)
        for index, mode in enumerate(
                [LockMode.EXCLUSIVE, LockMode.SHARED, LockMode.EXCLUSIVE]):
            sim.process(waiter(f"w{index}", mode))
            sim.run(until=1.0 + 0.1 * (index + 1))
        sim.run()
        assert order == ["w0", "w1", "w2"]
        assert manager.stats.waits == 3

    def test_release_all_clears_held_index(self, sim):
        manager = LockManager(sim)
        for resource in ("a", "b", "c"):
            assert manager.try_acquire("tx", resource, LockMode.SHARED)
        assert sorted(manager.held_by("tx")) == ["a", "b", "c"]
        manager.release_all("tx")
        assert manager.held_by("tx") == []
        # The table entry for fully released resources is reclaimed.
        assert manager._locks == {}


class TestPagePinAccounting:
    """pin/unpin refcounts steer the evictor and must balance."""

    def test_pin_survives_eviction_pressure(self, sim):
        pool = make_pool(sim, capacity_pages=2)
        fetch(sim, pool, 0)
        pool.pin(0, 0)
        # Fill past capacity: the pinned page is skipped, others evict.
        fetch(sim, pool, 64)
        fetch(sim, pool, 128)
        assert pool.resident_pages == 2
        assert (0, 0) in pool._frames
        assert pool.stats.pinned_skips >= 1

    def test_unpin_makes_page_evictable_again(self, sim):
        pool = make_pool(sim, capacity_pages=2)
        fetch(sim, pool, 0)
        pool.pin(0, 0)
        fetch(sim, pool, 64)
        pool.unpin(0, 0)
        assert pool.pinned_pages() == 0
        fetch(sim, pool, 128)
        fetch(sim, pool, 192)
        assert (0, 0) not in pool._frames

    def test_pin_counts_nest(self, sim):
        pool = make_pool(sim)
        fetch(sim, pool, 0)
        pool.pin(0, 0)
        pool.pin(0, 0)
        pool.unpin(0, 0)
        assert pool.pinned_pages() == 1
        pool.unpin(0, 0)
        assert pool.pinned_pages() == 0

    def test_unbalanced_unpin_rejected(self, sim):
        pool = make_pool(sim)
        fetch(sim, pool, 0)
        with pytest.raises(DatabaseError, match="unpin without pin"):
            pool.unpin(0, 0)

    def test_pin_of_non_resident_page_rejected(self, sim):
        pool = make_pool(sim)
        with pytest.raises(DatabaseError, match="non-resident"):
            pool.pin(0, 0)

    def test_fully_pinned_pool_raises_instead_of_spinning(self, sim):
        pool = make_pool(sim, capacity_pages=2)
        fetch(sim, pool, 0)
        fetch(sim, pool, 64)
        pool.pin(0, 0)
        pool.pin(0, 64)
        with pytest.raises(DatabaseError, match="every frame is pinned"):
            fetch(sim, pool, 128)

    def test_try_fetch_hit_updates_lru_and_stats(self, sim):
        pool = make_pool(sim, capacity_pages=2)
        fetch(sim, pool, 0)
        fetch(sim, pool, 64)
        before = pool.stats.hits
        assert pool.try_fetch(0, 0) is not None
        assert pool.stats.hits == before + 1
        # The hit refreshed LRU position: the next eviction takes 64.
        fetch(sim, pool, 128)
        assert (0, 0) in pool._frames
        assert (0, 64) not in pool._frames

    def test_try_fetch_miss_returns_none_without_stats(self, sim):
        pool = make_pool(sim)
        misses = pool.stats.misses
        assert pool.try_fetch(0, 0) is None
        # try_fetch itself never counts a miss; fetch_miss does.
        assert pool.stats.misses == misses

    def test_dirty_hit_registers_exactly_once(self, sim):
        pool = make_pool(sim)
        fetch(sim, pool, 0)
        pool.try_fetch(0, 0, dirty=True)
        pool.try_fetch(0, 0, dirty=True)
        assert pool.dirty_pages == 1


def make_engine(sim, policy=None, capacity_pages=64):
    disks = {0: make_tiny_drive(sim, "wal", cylinders=40),
             1: make_tiny_drive(sim, "tab", cylinders=40, heads=4,
                                sectors_per_track=32)}
    device = StandardDriver(sim, disks)
    wal = WriteAheadLog(sim, device, disk_id=0, start_lba=0,
                        capacity_sectors=2048,
                        policy=policy or SyncCommitPolicy())
    pool = BufferPool(sim, device, capacity_pages=capacity_pages,
                      page_sectors=4, flush_interval_ms=0.0)
    return TransactionEngine(sim, device, wal, pool, LockManager(sim),
                             cpu_ms_per_op=0.01)


class TestRecordAccessAccounting:
    """A warm-path fallback must not count its lock or page hit twice."""

    def test_uncontended_acquisitions_equal_hits_plus_misses(self, sim):
        # A 4-page pool under a 40-page table forces misses; a 1 KB log
        # buffer makes try_append refuse (flush on append) on warm
        # pages, the fallback that used to re-count the hit as well.
        engine = make_engine(
            sim, policy=GroupCommitPolicy(log_buffer_bytes=1024),
            capacity_pages=4)
        table = engine.create_table(TableSpec("t", 200, 400, 1))
        accesses = 0

        def body():
            nonlocal accesses
            for start in range(0, 400, 40):
                tx = engine.begin()
                for index in range(start, start + 40, 3):
                    yield from engine.read_record(tx, table, index)
                    yield from engine.write_record(tx, table, index)
                    accesses += 2
                yield from engine.commit(tx)

        drive_to_completion(sim, body())
        locks, pool = engine.locks.stats, engine.pool.stats
        assert locks.waits == 0
        assert pool.misses > 0 and engine.wal.stats.flushes > 0
        assert pool.hits + pool.misses == accesses
        assert locks.acquisitions == accesses


# ----------------------------------------------------------------------
# One access path: every cold cause, alone and combined, against the
# schedule the four-body implementation produced

#: The record whose access is measured (its own page: 10 records each).
TARGET = 100

#: (mode, cold causes).  "lock": another transaction holds the record
#: exclusively until t = 5 ms; "miss": its page is not resident;
#: "latch": the WAL latch is held until t = 20 ms; "flush": the append
#: takes a 1 KB group-commit buffer over its limit and forces it.
ACCESS_CASES = [
    ("read", ()),
    ("read", ("lock",)),
    ("read", ("miss",)),
    ("read", ("lock", "miss")),
    ("write", ()),
    ("write", ("lock",)),
    ("write", ("miss",)),
    ("write", ("latch",)),
    ("write", ("flush",)),
    ("write", ("lock", "miss", "latch")),
    ("write", ("lock", "miss", "flush")),
    ("write", ("lock", "miss", "latch", "flush")),
]


def access_run(mode, causes):
    """One record access at t = 1 ms with 0.03 ms of banked CPU debt,
    then a commit; returns everything the access is allowed to move."""
    sim = Simulation()
    trace = sim.enable_trace()
    engine = make_engine(
        sim, policy=GroupCommitPolicy(log_buffer_bytes=1024)
        if "flush" in causes else None)
    table = engine.create_table(TableSpec("t", 200, 400, 1))
    wal = engine.wal
    engine.pool.preload(1, table.page_of(0))
    if "miss" not in causes:
        engine.pool.preload(1, table.page_of(TARGET))
    if "lock" in causes:
        holder = engine.begin()
        assert engine.locks.try_acquire(
            holder, (table.table_id, TARGET), LockMode.EXCLUSIVE)

        def release():
            yield sim.timeout(5.0)
            engine.abort(holder)

        sim.process(release())
    if "latch" in causes:
        def hold_latch():
            yield sim.timeout(0.5)
            token = wal._latch.request()
            yield token
            yield sim.timeout(19.5)
            wal._latch.release(token)

        sim.process(hold_latch())
    seen = {}

    def body():
        tx = engine.begin()
        # Warm accesses: two 414-byte log records and 0.03 ms of debt.
        yield from engine.write_record(tx, table, 0)
        yield from engine.write_record(tx, table, 1)
        yield from engine.read_record(tx, table, 2)
        yield sim.timeout(1.0)
        if mode == "read":
            yield from engine.read_record(tx, table, TARGET)
        else:
            yield from engine.write_record(tx, table, TARGET)
        seen["accessed_at"] = sim.now
        seen["cpu_debt"] = tx.cpu_debt
        seen["last_lsn"] = tx.last_lsn
        yield from engine.commit(tx)

    drive_to_completion(sim, body())
    stats = wal.stats
    return {
        **seen,
        "events": len(trace),
        "trace": hashlib.sha256(repr(trace).encode()).hexdigest()[:16],
        "end": sim.now,
        "locks": dataclasses.astuple(engine.locks.stats),
        "pool": dataclasses.astuple(engine.pool.stats),
        "wal": (stats.flushes, stats.bytes_appended, stats.bytes_flushed,
                stats.flush_io.total, stats.latch_wait_ms),
        "engine": dataclasses.astuple(engine.stats),
    }


#: Captured at commit 2ca3c75 (warm function + ``_slow`` generator per
#: access kind) by printing ``access_run`` for every case.
ACCESS_GOLDEN = {
    ("read", ()): dict(
        accessed_at=1.0, cpu_debt=0.04, last_lsn=828, events=13,
        trace="6acbc108f55f8274", end=11.25, locks=(4, 0, 0, 0.0),
        pool=(4, 0, 0, 0, 0), wal=(1, 836, 836, 10.21, 0.0),
        engine=(1, 0, 2)),
    ("read", ("lock",)): dict(
        accessed_at=5.0, cpu_debt=0.01, last_lsn=828, events=21,
        trace="be622278c3e5c455", end=11.25,
        locks=(5, 1, 0, 3.9699999999999998), pool=(4, 0, 0, 0, 0),
        wal=(1, 836, 836, 6.24, 0.0), engine=(1, 1, 2)),
    ("read", ("miss",)): dict(
        accessed_at=3.75, cpu_debt=0.01, last_lsn=828, events=20,
        trace="c2349098d2d8839b", end=11.25, locks=(4, 0, 0, 0.0),
        pool=(3, 1, 0, 0, 0), wal=(1, 836, 836, 7.49, 0.0), engine=(1, 0, 2)),
    ("read", ("lock", "miss")): dict(
        accessed_at=13.75, cpu_debt=0.01, last_lsn=828, events=27,
        trace="dba609bd7d7564ba", end=21.25,
        locks=(5, 1, 0, 3.9699999999999998), pool=(3, 1, 0, 0, 0),
        wal=(1, 836, 836, 7.49, 0.0), engine=(1, 1, 2)),
    ("write", ()): dict(
        accessed_at=1.0, cpu_debt=0.04, last_lsn=1242, events=13,
        trace="ba0ae0c5e722effc", end=11.875, locks=(4, 0, 0, 0.0),
        pool=(4, 0, 0, 0, 0), wal=(1, 1250, 1250, 10.835, 0.0),
        engine=(1, 0, 3)),
    ("write", ("lock",)): dict(
        accessed_at=5.0, cpu_debt=0.01, last_lsn=1242, events=21,
        trace="2d6bb687722e00c3", end=11.875,
        locks=(5, 1, 0, 3.9699999999999998), pool=(4, 0, 0, 0, 0),
        wal=(1, 1250, 1250, 6.865, 0.0), engine=(1, 1, 3)),
    ("write", ("miss",)): dict(
        accessed_at=3.75, cpu_debt=0.01, last_lsn=1242, events=20,
        trace="04828f38f546f134", end=11.875, locks=(4, 0, 0, 0.0),
        pool=(3, 1, 0, 0, 0), wal=(1, 1250, 1250, 8.115, 0.0),
        engine=(1, 0, 3)),
    ("write", ("latch",)): dict(
        accessed_at=20.0, cpu_debt=0.0, last_lsn=1242, events=21,
        trace="efabfd3cdd6d3d64", end=31.875, locks=(4, 0, 0, 0.0),
        pool=(4, 0, 0, 0, 0), wal=(1, 1250, 1250, 11.875, 18.96),
        engine=(1, 0, 3)),
    ("write", ("flush",)): dict(
        accessed_at=11.875, cpu_debt=0.0, last_lsn=1242, events=14,
        trace="b1a5dec15873d801", end=11.875, locks=(4, 0, 0, 0.0),
        pool=(4, 0, 0, 0, 0), wal=(1, 1250, 1242, 10.835, 0.0),
        engine=(1, 0, 3)),
    ("write", ("lock", "miss", "latch")): dict(
        accessed_at=20.0, cpu_debt=0.0, last_lsn=1242, events=35,
        trace="72b41c5b08572d5e", end=31.875,
        locks=(5, 1, 0, 3.9699999999999998), pool=(3, 1, 0, 0, 0),
        wal=(1, 1250, 1250, 11.875, 6.24), engine=(1, 1, 3)),
    ("write", ("lock", "miss", "flush")): dict(
        accessed_at=21.875, cpu_debt=0.0, last_lsn=1242, events=28,
        trace="e8158dda61c3a70e", end=21.875,
        locks=(5, 1, 0, 3.9699999999999998), pool=(3, 1, 0, 0, 0),
        wal=(1, 1250, 1242, 8.115, 0.0), engine=(1, 1, 3)),
    ("write", ("lock", "miss", "latch", "flush")): dict(
        accessed_at=31.875, cpu_debt=0.0, last_lsn=1242, events=33,
        trace="05378d7b671a7ea2", end=31.875,
        locks=(5, 1, 0, 3.9699999999999998), pool=(3, 1, 0, 0, 0),
        wal=(1, 1250, 1242, 11.875, 6.24), engine=(1, 1, 3)),
}


class TestSingleAccessPath:
    @pytest.mark.parametrize("mode,causes", ACCESS_CASES)
    def test_schedule_and_counters_match_the_four_body_engine(
            self, mode, causes):
        assert access_run(mode, causes) == ACCESS_GOLDEN[(mode, causes)]

    def test_a_warm_access_yields_nothing(self, sim):
        engine = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 400, 1))
        engine.pool.preload(1, table.page_of(0))
        tx = engine.begin()
        assert list(engine.read_record(tx, table, 0)) == []
        assert list(engine.write_record(tx, table, 1)) == []
        assert tx.cpu_debt == 0.02 and tx.last_lsn == 414
        assert engine.stats.log_records == 1

    @pytest.mark.parametrize("access", ["read_record", "write_record"])
    @pytest.mark.parametrize("index", [-1, 400])
    def test_out_of_range_index_raises_between_lock_and_pool(
            self, sim, access, index):
        engine = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 400, 1))
        tx = engine.begin()

        def body():
            yield from getattr(engine, access)(tx, table, index)

        with pytest.raises(DatabaseError, match="out of range"):
            drive_to_completion(sim, body())
        assert engine.locks.held_by(tx) == [(table.table_id, index)]
        assert engine.pool.stats.accesses == 0
        assert engine.stats.log_records == 0 and tx.cpu_debt == 0.0

    @pytest.mark.parametrize("access", ["read_record", "write_record"])
    def test_access_on_a_finished_transaction_raises(self, sim, access):
        engine = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 400, 1))
        tx = engine.begin()
        engine.abort(tx)

        def body():
            yield from getattr(engine, access)(tx, table, 0)

        with pytest.raises(DatabaseError, match="is finished"):
            drive_to_completion(sim, body())
        assert engine.locks.stats.acquisitions == 0

    def test_run_transaction_reraises_deadlock_past_max_retries(self, sim):
        engine = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 400, 1))
        attempts = []

        def body(tx):
            attempts.append(tx.tx_id)
            yield from engine.write_record(tx, table, len(attempts))
            raise DeadlockError("victim")

        def runner():
            yield from engine.run_transaction(body, max_retries=2)

        with pytest.raises(DeadlockError):
            drive_to_completion(sim, runner())
        assert attempts == [1, 2, 3]
        assert engine.stats.aborted == 3 and engine.stats.committed == 0
        assert engine.locks._locks == {}  # every attempt released its lock


class TestWalEncodeByteCompat:
    """The cached-buffer encoder must match the original byte-for-byte."""

    def test_matches_original_pack_plus_zeros(self, sim):
        engine = make_engine(sim)
        header = struct.Struct("<IHII")
        for tx_id, table_id, index, payload in [
                (1, 2, 3, 0), (7, 1, 900, 64), (2**31, 9, 0, 300),
                (5, 5, 5, 64)]:
            reference = header.pack(tx_id, table_id, index,
                                    payload) + bytes(payload)
            assert engine.encode_log_record(
                tx_id, table_id, index, payload) == reference

    def test_payload_cache_returns_equal_but_fresh_records(self, sim):
        engine = make_engine(sim)
        first = engine.encode_log_record(1, 1, 1, 128)
        second = engine.encode_log_record(2, 1, 1, 128)
        assert first[-128:] == second[-128:] == bytes(128)
        assert first != second  # headers differ
