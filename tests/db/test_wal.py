"""Unit tests for the write-ahead log and its force policies."""

import pytest

from repro.baselines.group_commit import GroupCommitPolicy, SyncCommitPolicy
from repro.baselines.standard import StandardDriver
from repro.db.wal import WriteAheadLog
from repro.errors import DatabaseError
from tests.conftest import drive_to_completion, make_tiny_drive


def make_wal(sim, policy, capacity_sectors=256):
    disk = make_tiny_drive(sim, "logdisk", cylinders=40, heads=2,
                           sectors_per_track=16)
    device = StandardDriver(sim, {0: disk})
    wal = WriteAheadLog(sim, device, disk_id=0, start_lba=0,
                        capacity_sectors=capacity_sectors, policy=policy)
    return wal, device, disk


class TestSyncPolicy:
    def test_commit_forces_and_waits(self, sim):
        wal, _device, disk = make_wal(sim, SyncCommitPolicy())

        def body():
            lsn = yield wal.append(b"record-one")
            durable = yield wal.commit(lsn)
            assert wal.policy.wait_for_durable
            yield durable
            return lsn

        lsn = drive_to_completion(sim, body())
        assert wal.durable_lsn >= lsn
        assert wal.stats.flushes == 1
        assert wal.stats.flush_io.count == 1
        assert disk.store.is_written(0)

    def test_each_commit_is_one_flush(self, sim):
        wal, _device, _disk = make_wal(sim, SyncCommitPolicy())

        def body():
            for index in range(5):
                lsn = yield wal.append(bytes([index]) * 100)
                durable = yield wal.commit(lsn)
                yield durable

        drive_to_completion(sim, body())
        assert wal.stats.flushes == 5

    def test_commit_of_already_durable_lsn_is_immediate(self, sim):
        wal, _device, _disk = make_wal(sim, SyncCommitPolicy())

        def body():
            lsn = yield wal.append(b"x")
            durable = yield wal.commit(lsn)
            yield durable
            again = yield wal.commit(lsn)
            assert again.triggered
            return wal.stats.flushes

        assert drive_to_completion(sim, body()) == 1


class TestGroupCommitPolicy:
    def test_flush_only_at_threshold(self, sim):
        wal, _device, _disk = make_wal(
            sim, GroupCommitPolicy(log_buffer_bytes=1000))

        def body():
            events = []
            for index in range(7):  # 7 x 200 B; flush at records 5.
                lsn = yield wal.append(bytes([index]) * 200)
                durable = yield wal.commit(lsn)
                events.append((lsn, durable))
            return events

        events = drive_to_completion(sim, body())
        sim.run(until=sim.now + 100)
        assert wal.stats.flushes == 1
        # Records covered by the flush are durable; later ones are not.
        covered = [durable for lsn, durable in events
                   if lsn <= wal.durable_lsn]
        uncovered = [durable for lsn, durable in events
                     if lsn > wal.durable_lsn]
        assert all(d.triggered for d in covered)
        assert uncovered and not any(d.triggered for d in uncovered)

    def test_commit_does_not_wait(self, sim):
        wal, _device, _disk = make_wal(
            sim, GroupCommitPolicy(log_buffer_bytes=10_000))

        def body():
            started = sim.now
            lsn = yield wal.append(b"tiny")
            yield wal.commit(lsn)
            return sim.now - started

        elapsed = drive_to_completion(sim, body())
        assert elapsed == 0.0  # no disk I/O on this path
        assert wal.stats.flushes == 0

    def test_force_flushes_trailing_buffer(self, sim):
        wal, _device, _disk = make_wal(
            sim, GroupCommitPolicy(log_buffer_bytes=10_000))

        def body():
            lsn = yield wal.append(b"straggler")
            durable = yield wal.commit(lsn)
            yield wal.force()
            return durable

        durable = drive_to_completion(sim, body())
        assert durable.triggered
        assert wal.stats.flushes == 1

    def test_bigger_buffer_fewer_flushes(self, sim):
        """Table 3's relationship, at unit scale."""
        def flush_count(buffer_bytes):
            local_sim = type(sim)()
            wal, _device, _disk = make_wal(
                local_sim, GroupCommitPolicy(buffer_bytes))

            def body():
                for index in range(64):
                    lsn = yield wal.append(bytes(128))
                    yield wal.commit(lsn)
                yield wal.force()

            drive_to_completion(local_sim, body())
            return wal.stats.flushes

        small, large = flush_count(256), flush_count(2048)
        assert small > large


class TestMechanics:
    def test_append_empty_rejected(self, sim):
        wal, _device, _disk = make_wal(sim, SyncCommitPolicy())
        with pytest.raises(DatabaseError):
            wal.append(b"")

    def test_capacity_too_small(self, sim):
        with pytest.raises(DatabaseError):
            make_wal(sim, SyncCommitPolicy(), capacity_sectors=4)

    def test_circular_wraparound(self, sim):
        """Appends beyond the region wrap to its start without error."""
        wal, _device, disk = make_wal(sim, SyncCommitPolicy(),
                                      capacity_sectors=8)

        def body():
            for index in range(10):  # 10 x 1024 B > 8 x 512 B region
                lsn = yield wal.append(bytes([index]) * 1024)
                durable = yield wal.commit(lsn)
                yield durable

        drive_to_completion(sim, body())
        assert wal.stats.flushes == 10
        # All writes stayed within the region.
        written = [lba for lba in range(disk.geometry.total_sectors)
                   if disk.store.is_written(lba)]
        assert max(written) < 8

    def test_latch_serializes_appends_during_flush(self, sim):
        """Berkeley DB-style latch-during-flush (the default for group
        commit, forced on here): an append arriving mid-force stalls."""
        wal, _device, _disk = make_wal(sim, SyncCommitPolicy())
        wal.latch_during_flush = True

        def committer():
            lsn = yield wal.append(bytes(4096))
            durable = yield wal.commit(lsn)
            yield durable

        def late_appender():
            yield sim.timeout(0.01)  # arrive while the flush is active
            yield wal.append(b"blocked")

        first = sim.process(committer())
        second = sim.process(late_appender())
        sim.run_until(sim.all_of([first, second]))
        assert wal.stats.latch_wait_ms > 0

    def test_force_counts_its_latch_wait(self, sim):
        """A force queued behind a latched flush counts its stall in
        ``latch_wait_ms`` like an append or a commit does."""
        wal, _device, _disk = make_wal(sim, SyncCommitPolicy())
        wal.latch_during_flush = True
        flush_ends = []

        def committer():
            lsn = yield wal.append(bytes(4096))
            durable = yield wal.commit(lsn)
            yield durable
            flush_ends.append(sim.now)

        def late_force():
            yield sim.timeout(0.01)  # arrive while the flush is active
            yield wal.force()

        first = sim.process(committer())
        second = sim.process(late_force())
        sim.run_until(sim.all_of([first, second]))
        assert flush_ends[0] > 0.01
        assert wal.stats.latch_wait_ms == flush_ends[0] - 0.01
