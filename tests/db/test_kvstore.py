"""Tests for the durable KV store, including real WAL-replay recovery
over crashed Trail and standard devices."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.group_commit import GroupCommitPolicy
from repro.baselines.standard import StandardDriver
from repro.db.kvstore import DurableKv
from repro.errors import DatabaseError
from repro.sim import Simulation
from tests.conftest import (
    cold_restart, crash_at, drive_to_completion, make_tiny_drive,
    make_tiny_trail)


def standard_kv(sim, **kwargs):
    disk = make_tiny_drive(sim, "kv", cylinders=60, heads=4,
                           sectors_per_track=32)
    device = StandardDriver(sim, {0: disk})
    return DurableKv(sim, device, capacity_sectors=2048, **kwargs), disk


def restarted_kv(disk):
    """A fresh store over ``disk``'s platters after a power cycle."""
    restart = cold_restart(None, {0: disk})
    return DurableKv(restart.sim, StandardDriver(restart.sim, restart.data),
                     capacity_sectors=2048)


class TestBasics:
    def test_put_get(self, sim):
        kv, _disk = standard_kv(sim)

        def body():
            yield from kv.put(b"alpha", b"one")
            yield from kv.put(b"beta", b"two")

        drive_to_completion(sim, body())
        assert kv.get(b"alpha") == b"one"
        assert kv.get(b"beta") == b"two"
        assert kv.get(b"gamma") is None
        assert len(kv) == 2
        assert b"alpha" in kv

    def test_overwrite(self, sim):
        kv, _disk = standard_kv(sim)

        def body():
            yield from kv.put(b"k", b"v1")
            yield from kv.put(b"k", b"v2")

        drive_to_completion(sim, body())
        assert kv.get(b"k") == b"v2"

    def test_delete(self, sim):
        kv, _disk = standard_kv(sim)

        def body():
            yield from kv.put(b"k", b"v")
            yield from kv.delete(b"k")
            yield from kv.delete(b"never-existed")

        drive_to_completion(sim, body())
        assert kv.get(b"k") is None
        assert kv.stats.deletes == 2

    def test_validation(self, sim):
        kv, _disk = standard_kv(sim)
        with pytest.raises(DatabaseError):
            kv._encode(1, b"", b"v")
        with pytest.raises(DatabaseError):
            kv._encode(1, b"x" * 70_000, b"v")

    def test_region_exhaustion_refused(self, sim):
        disk = make_tiny_drive(sim, "kv", cylinders=60, heads=4,
                               sectors_per_track=32)
        device = StandardDriver(sim, {0: disk})
        kv = DurableKv(sim, device, capacity_sectors=8)  # 4 KB region

        def body():
            with pytest.raises(DatabaseError):
                for index in range(100):
                    yield from kv.put(b"key%d" % index, bytes(256))

        drive_to_completion(sim, body())


class TestRecovery:
    def test_recovery_from_clean_log(self, sim):
        kv, disk = standard_kv(sim)
        expected = {b"k%d" % i: b"v%d" % (i * 7) for i in range(40)}

        def body():
            for key, value in expected.items():
                yield from kv.put(key, value)
            yield from kv.delete(b"k3")

        drive_to_completion(sim, body())
        del expected[b"k3"]

        # Fresh store instance over the same device: replay the log.
        kv2 = restarted_kv(disk)
        replayed = drive_to_completion(kv2.sim, kv2.recover())
        assert replayed == 41
        assert {key: kv2.get(key) for key in expected} == expected
        assert kv2.get(b"k3") is None

    def test_recovery_over_crashed_trail_device(self):
        """End to end: KV on Trail; power failure; block-level Trail
        recovery runs at mount; then KV-level WAL replay restores every
        acknowledged put."""
        sim, trail, log_drive, data = make_tiny_trail(mount=False)
        kv = DurableKv(sim, trail, capacity_sectors=2048)
        acked = {}

        def workload():
            try:
                yield sim.process(trail.mount())
                for index in range(60):
                    key = b"key%03d" % index
                    value = (b"value-%d" % index) * 3
                    yield from kv.put(key, value)
                    acked[key] = value
            except (Exception,):
                return

        crash_at(sim, trail, sim.process(workload()), 120.0)
        assert acked, "crash happened before any put completed"

        # Remount on surviving media: Trail-level recovery, then KV
        # replay.
        restart = cold_restart(log_drive, data)
        assert restart.report is not None
        kv2 = DurableKv(restart.sim, restart.driver, capacity_sectors=2048)
        replayed = drive_to_completion(restart.sim, kv2.recover())
        assert replayed >= len(acked)
        for key, value in acked.items():
            assert kv2.get(key) == value, key

    def test_torn_tail_detected(self, sim):
        kv, disk = standard_kv(sim)

        def body():
            yield from kv.put(b"a", b"1")
            yield from kv.put(b"b", b"2")

        drive_to_completion(sim, body())
        # Corrupt the second record's CRC region on the platter.
        sector = disk.store.read_sector(0)
        corrupted = bytearray(sector)
        corrupted[-1] ^= 0xFF
        corrupted[30] ^= 0xFF
        disk.store.write_sector(0, bytes(corrupted))

        kv2 = restarted_kv(disk)
        replayed = drive_to_completion(kv2.sim, kv2.recover())
        assert replayed < 2
        assert kv2.stats.torn_tail_detected


class TestGroupCommitKv:
    def test_group_commit_defers_durability(self, sim):
        disk = make_tiny_drive(sim, "kv", cylinders=60, heads=4,
                               sectors_per_track=32)
        device = StandardDriver(sim, {0: disk})
        kv = DurableKv(sim, device, capacity_sectors=2048,
                       policy=GroupCommitPolicy(log_buffer_bytes=4096))

        def body():
            durable = yield from kv.put(b"k", b"v")
            return durable

        durable = drive_to_completion(sim, body())
        assert kv.get(b"k") == b"v"  # visible immediately
        assert not durable.triggered  # but not yet durable
        assert kv.wal.stats.flushes == 0


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(
    st.binary(min_size=1, max_size=16),
    st.binary(min_size=0, max_size=64),
    min_size=1, max_size=25))
def test_recovery_round_trip_property(contents):
    """Whatever was durably put is exactly what recovery rebuilds."""
    sim = Simulation()
    disk = make_tiny_drive(sim, "kv", cylinders=60, heads=4,
                           sectors_per_track=32)
    device = StandardDriver(sim, {0: disk})
    kv = DurableKv(sim, device, capacity_sectors=2048)

    def body():
        for key, value in contents.items():
            yield from kv.put(key, value)

    drive_to_completion(sim, body())

    kv2 = restarted_kv(disk)
    drive_to_completion(kv2.sim, kv2.recover())
    assert {key: kv2.get(key) for key in contents} == contents
