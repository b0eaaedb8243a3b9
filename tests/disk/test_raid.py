"""Tests for the RAID-5 array substrate."""

import random

import pytest

from repro.errors import DiskError
from repro.raid import Raid5Array
from repro.sim import Simulation
from tests.conftest import drive_to_completion, make_tiny_drive

SECTOR = 512


def make_array(sim, members=4, stripe_unit=4):
    drives = [make_tiny_drive(sim, f"m{i}", cylinders=40, heads=2,
                              sectors_per_track=16)
              for i in range(members)]
    return Raid5Array(sim, drives, stripe_unit_sectors=stripe_unit), drives


def do_write(sim, array, lba, data):
    def body():
        return (yield array.write(lba, data))
    return drive_to_completion(sim, body())


def do_read(sim, array, lba, nsectors):
    def body():
        result = yield array.read(lba, nsectors)
        return result.data
    return drive_to_completion(sim, body())


class TestConstruction:
    def test_needs_three_drives(self, sim):
        drives = [make_tiny_drive(sim, f"m{i}") for i in range(2)]
        with pytest.raises(DiskError):
            Raid5Array(sim, drives)

    def test_capacity_excludes_parity(self, sim):
        array, drives = make_array(sim, members=4, stripe_unit=4)
        member_sectors = drives[0].geometry.total_sectors
        assert array.total_sectors == (member_sectors // 4) * 3 * 4 \
            // 1  # 3 data drives' worth of units

    def test_parity_rotates(self, sim):
        array, _drives = make_array(sim, members=4)
        parities = {array.parity_drive_of_stripe(stripe)
                    for stripe in range(4)}
        assert parities == {0, 1, 2, 3}


class TestReadWrite:
    def test_round_trip_small(self, sim):
        array, _drives = make_array(sim)
        payload = bytes(range(256)) * 4  # 2 sectors
        do_write(sim, array, 10, payload)
        assert do_read(sim, array, 10, 2) == payload

    def test_round_trip_across_units(self, sim):
        array, _drives = make_array(sim, stripe_unit=4)
        payload = bytes([7]) * (10 * SECTOR)  # spans 3 units
        do_write(sim, array, 2, payload)
        assert do_read(sim, array, 2, 10) == payload

    def test_small_write_pays_four_ios(self, sim):
        array, _drives = make_array(sim)
        result = do_write(sim, array, 0, bytes(SECTOR))
        assert result.member_ios == 4
        assert array.stats.small_writes == 1

    def test_full_stripe_write_skips_reads(self, sim):
        array, _drives = make_array(sim, members=4, stripe_unit=4)
        # 3 data units x 4 sectors = a whole stripe starting at unit 0.
        payload = bytes([3]) * (12 * SECTOR)
        result = do_write(sim, array, 0, payload)
        assert array.stats.full_stripe_writes == 1
        assert array.stats.small_writes == 0
        assert result.member_ios == 4  # 3 data writes + 1 parity write
        assert do_read(sim, array, 0, 12) == payload

    def test_parity_is_consistent(self, sim):
        """XOR of all members over any stripe range is zero."""
        array, drives = make_array(sim, members=4, stripe_unit=4)
        rng = random.Random(1)
        for _ in range(12):
            lba = rng.randrange(0, array.total_sectors - 3)
            do_write(sim, array, lba,
                     bytes([rng.randrange(256)]) * (2 * SECTOR))
        for stripe in range(4):
            base = stripe * 4
            acc = bytearray(4 * SECTOR)
            for drive in drives:
                data = drive.store.read(base, 4)
                for index, byte in enumerate(data):
                    acc[index] ^= byte
            assert bytes(acc) == bytes(4 * SECTOR), f"stripe {stripe}"


class TestDegradedMode:
    def test_reconstruct_after_failure(self, sim):
        array, _drives = make_array(sim)
        expected = {}
        rng = random.Random(2)
        for index in range(10):
            lba = rng.randrange(0, array.total_sectors - 2)
            payload = bytes([index + 1]) * SECTOR
            do_write(sim, array, lba, payload)
            expected[lba] = payload

        array.fail_drive(1)
        for lba, payload in expected.items():
            assert do_read(sim, array, lba, 1) == payload, lba
        assert array.stats.degraded_reads > 0

    def test_second_failure_rejected(self, sim):
        # ``fail_drive`` is the *administrative* path and refuses a
        # second failure up front.  A second member dying for real
        # (``DiskDrive.fail``) instead fails the array lazily when I/O
        # observes it — see ``tests/raid/test_rebuild.py::
        # TestFaultStorms::test_second_survivor_death_fails_array_loudly``
        # for those semantics (array_failed + RaidFailedError).
        array, _drives = make_array(sim)
        array.fail_drive(0)
        with pytest.raises(DiskError):
            array.fail_drive(1)

    def test_failure_index_validated(self, sim):
        array, _drives = make_array(sim)
        with pytest.raises(DiskError):
            array.fail_drive(9)


class TestTrailFrontedRaid:
    def test_trail_hides_small_write_penalty(self):
        """The paper's future-work scenario: Trail in front of RAID-5
        acknowledges small writes after one log write instead of four
        member I/Os."""
        from repro.core.config import TrailConfig
        from repro.core.driver import TrailDriver

        sim = Simulation()
        members = [make_tiny_drive(sim, f"m{i}", cylinders=40, heads=2,
                                   sectors_per_track=16)
                   for i in range(4)]
        array = Raid5Array(sim, members, stripe_unit_sectors=4)
        log_drive = make_tiny_drive(sim, "log", cylinders=30)
        config = TrailConfig(idle_reposition_interval_ms=0)
        TrailDriver.format_disk(log_drive)
        trail = TrailDriver(sim, log_drive, {0: array}, config)
        drive_to_completion(sim, trail.mount())

        raw_latency = do_write(sim, array, 100, bytes(SECTOR)).latency_ms

        def body():
            total = 0.0
            for index in range(10):
                start = sim.now
                yield trail.write(index * 8, bytes(SECTOR))
                total += sim.now - start
                yield sim.timeout(3.0)
            return total / 10

        trail_latency = drive_to_completion(sim, body())
        assert trail_latency < raw_latency / 2

        # The data still lands on the array (with parity) eventually.
        drive_to_completion(sim, trail.flush())
        for index in range(10):
            assert do_read(sim, array, index * 8, 1) == bytes(SECTOR)
