"""Unit tests for the transaction engine."""

import random

import pytest

from repro.baselines.group_commit import GroupCommitPolicy, SyncCommitPolicy
from repro.baselines.standard import StandardDriver
from repro.db.engine import TableSpec, TransactionEngine
from repro.db.locks import LockManager
from repro.db.pages import BufferPool
from repro.db.wal import WriteAheadLog
from repro.errors import (
    DatabaseError, DeadlockError, IntentionalRollback, TransactionAborted)
from repro.sim import Simulation
from tests.conftest import drive_to_completion, make_tiny_drive


def make_engine(sim, policy=None, deadlock_timeout_ms=50.0):
    disks = {0: make_tiny_drive(sim, "wal", cylinders=40),
             1: make_tiny_drive(sim, "tab", cylinders=40, heads=4,
                                sectors_per_track=32)}
    device = StandardDriver(sim, disks)
    wal = WriteAheadLog(sim, device, disk_id=0, start_lba=0,
                        capacity_sectors=2048,
                        policy=policy or SyncCommitPolicy())
    pool = BufferPool(sim, device, capacity_pages=64, page_sectors=4,
                      flush_interval_ms=0.0)
    engine = TransactionEngine(
        sim, device, wal, pool,
        LockManager(sim, deadlock_timeout_ms=deadlock_timeout_ms),
        cpu_ms_per_op=0.01)
    return engine, wal


class TestSchema:
    def test_create_and_lookup(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", record_bytes=100,
                                              max_rows=50, disk_id=1))
        assert engine.table("t") is table
        assert table.records_per_page == 2048 // 100

    def test_duplicate_table_rejected(self, sim):
        engine, _wal = make_engine(sim)
        engine.create_table(TableSpec("t", 100, 50, 1))
        with pytest.raises(DatabaseError):
            engine.create_table(TableSpec("t", 100, 50, 1))

    def test_unknown_table(self, sim):
        engine, _wal = make_engine(sim)
        with pytest.raises(DatabaseError):
            engine.table("missing")

    def test_extents_do_not_overlap(self, sim):
        engine, _wal = make_engine(sim)
        a = engine.create_table(TableSpec("a", 512, 100, 1))
        b = engine.create_table(TableSpec("b", 512, 100, 1))
        a_end = a.start_lba + a.extent_sectors
        assert b.start_lba >= a_end

    def test_page_of_bounds(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 100, 50, 1))
        table.page_of(0)
        table.page_of(49)
        with pytest.raises(DatabaseError):
            table.page_of(50)

    def test_record_larger_than_page(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("big", 5000, 10, 1))
        assert table.records_per_page == 1

    def test_invalid_spec(self):
        with pytest.raises(DatabaseError):
            TableSpec("t", 0, 10, 1)
        with pytest.raises(DatabaseError):
            TableSpec("t", 10, 0, 1)


class TestTransactions:
    def test_commit_is_durable_under_sync_policy(self, sim):
        engine, wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def body():
            tx = engine.begin()
            yield from engine.write_record(tx, table, 5)
            durable = yield from engine.commit(tx)
            assert durable.triggered
            return tx

        drive_to_completion(sim, body())
        assert engine.stats.committed == 1
        assert wal.stats.flushes == 1
        assert wal.stats.bytes_appended > 200  # image + headers + marker

    def test_commit_under_group_commit_defers_durability(self, sim):
        engine, wal = make_engine(
            sim, policy=GroupCommitPolicy(log_buffer_bytes=100_000))
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def body():
            tx = engine.begin()
            yield from engine.write_record(tx, table, 5)
            durable = yield from engine.commit(tx)
            return durable

        durable = drive_to_completion(sim, body())
        assert not durable.triggered
        assert wal.stats.flushes == 0
        assert engine.stats.committed == 1

    def test_locks_released_at_commit(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def body():
            tx1 = engine.begin()
            yield from engine.write_record(tx1, table, 7)
            yield from engine.commit(tx1)
            tx2 = engine.begin()
            yield from engine.write_record(tx2, table, 7)  # no deadlock
            yield from engine.commit(tx2)

        drive_to_completion(sim, body())
        assert engine.stats.committed == 2

    def test_abort_releases_locks_and_drops_log(self, sim):
        engine, wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def body():
            tx = engine.begin()
            yield from engine.write_record(tx, table, 7)
            engine.abort(tx)
            tx2 = engine.begin()
            yield from engine.write_record(tx2, table, 7)
            yield from engine.commit(tx2)

        drive_to_completion(sim, body())
        assert engine.stats.aborted == 1
        assert engine.stats.committed == 1

    def test_finished_transaction_rejects_operations(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def body():
            tx = engine.begin()
            yield from engine.commit(tx)
            with pytest.raises(DatabaseError):
                yield from engine.read_record(tx, table, 0)

        drive_to_completion(sim, body())

    def test_conflicting_writers_serialize(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))
        order = []

        def writer(name, delay):
            yield sim.timeout(delay)
            tx = engine.begin()
            yield from engine.write_record(tx, table, 1)
            order.append((name, "locked"))
            yield sim.timeout(5)
            yield from engine.commit(tx)
            order.append((name, "committed"))

        processes = [sim.process(writer("a", 0)),
                     sim.process(writer("b", 0.5))]
        sim.run_until(sim.all_of(processes))
        assert order.index(("a", "committed")) < order.index(("b", "locked"))


class TestRunTransaction:
    def test_deadlock_retry_succeeds(self, sim):
        engine, _wal = make_engine(sim, deadlock_timeout_ms=10.0)
        table = engine.create_table(TableSpec("t", 200, 100, 1))

        def tx_body(order):
            def body(tx):
                for index in order:
                    yield from engine.write_record(tx, table, index)
                    yield sim.timeout(2)
            return body

        results = []

        def runner(order):
            durable, attempts = yield from engine.run_transaction(
                tx_body(order))
            results.append(attempts)

        processes = [sim.process(runner([1, 2])),
                     sim.process(runner([2, 1]))]
        sim.run_until(sim.all_of(processes))
        assert len(results) == 2
        assert engine.stats.committed == 2
        assert max(results) >= 2  # at least one was a deadlock victim

    def test_intentional_rollback_not_retried(self, sim):
        engine, _wal = make_engine(sim)
        table = engine.create_table(TableSpec("t", 200, 100, 1))
        attempts = []

        def body(tx):
            attempts.append(1)
            yield from engine.write_record(tx, table, 1)
            raise IntentionalRollback("1% case")

        def runner():
            with pytest.raises(IntentionalRollback):
                yield from engine.run_transaction(body)

        drive_to_completion(sim, runner())
        assert len(attempts) == 1
        assert engine.stats.aborted == 1


class TestEngineIsolation:
    def test_back_to_back_engines_emit_identical_wal_bytes(self):
        """Transaction ids land in WAL records, so they must be numbered
        per engine: what an earlier engine in this process ran cannot
        show up in a later engine's log."""
        def wal_image():
            sim = Simulation()
            engine, _wal = make_engine(sim)
            table = engine.create_table(TableSpec("t", 200, 100, 1))
            rng = random.Random(11)

            def body():
                for _ in range(6):
                    tx = engine.begin()
                    for index in rng.sample(range(100), 4):
                        yield from engine.write_record(tx, table, index)
                    yield from engine.commit(tx)

            drive_to_completion(sim, body())
            store = engine.device.data_disks[0].store
            return [(lba, store.read(lba, nsectors))
                    for lba, nsectors in store.written_extents()]

        first, second = wal_image(), wal_image()
        assert first and first == second
