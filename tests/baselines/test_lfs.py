"""Unit tests for the LFS-style comparator driver."""

import random

import pytest

from repro.baselines.lfs import LfsDriver
from repro.errors import TrailError
from tests.conftest import drive_to_completion, make_tiny_drive

SECTOR = 512


def make_lfs(sim, cylinders=40, segment_sectors=64, clean_threshold=0.25):
    disk = make_tiny_drive(sim, "lfs", cylinders=cylinders, heads=2,
                           sectors_per_track=16)
    driver = LfsDriver(sim, {0: disk}, segment_sectors=segment_sectors,
                       clean_threshold=clean_threshold)
    return driver, disk


def test_read_your_writes(sim):
    driver, _disk = make_lfs(sim)

    def body():
        yield driver.write(100, b"V" * SECTOR)
        yield from driver.flush()  # writes are already durable: a no-op
        return (yield driver.read(100, 1))

    assert drive_to_completion(sim, body()) == b"V" * SECTOR


def test_overwrite_returns_newest(sim):
    driver, _disk = make_lfs(sim)

    def body():
        yield driver.write(100, b"1" * SECTOR)
        yield driver.write(100, b"2" * SECTOR)
        return (yield driver.read(100, 1))

    assert drive_to_completion(sim, body()) == b"2" * SECTOR


def test_unwritten_reads_zero(sim):
    driver, _disk = make_lfs(sim)

    def body():
        return (yield driver.read(5, 3))

    assert drive_to_completion(sim, body()) == bytes(3 * SECTOR)


def test_writes_are_appended_not_in_place(sim):
    driver, disk = make_lfs(sim)

    def body():
        yield driver.write(500, b"A" * SECTOR)

    drive_to_completion(sim, body())
    # Logical LBA 500 maps to a physical location near the log head,
    # not to physical sector 500.
    assert not disk.store.is_written(500)
    assert driver._mapping[500] != 500


def test_multi_sector_scattered_read(sim):
    driver, _disk = make_lfs(sim)

    def body():
        # Write out of order so physical placement is non-contiguous.
        yield driver.write(201, b"B" * SECTOR)
        yield driver.write(200, b"A" * SECTOR)
        yield driver.write(202, b"C" * SECTOR)
        return (yield driver.read(200, 3))

    data = drive_to_completion(sim, body())
    assert data == b"A" * SECTOR + b"B" * SECTOR + b"C" * SECTOR


def test_cleaning_triggers_and_preserves_data(sim):
    driver, _disk = make_lfs(sim, cylinders=6, segment_sectors=32,
                             clean_threshold=0.4)
    # 6 cyl x 2 heads x 16 spt = 192 sectors = 6 segments.
    rng = random.Random(0)
    expected = {}

    def body():
        # Repeatedly overwrite a small logical range: lots of dead
        # sectors, forcing the cleaner to run (192 total sectors, so
        # 150 appends must reclaim space).
        for round_index in range(150):
            lba = rng.randrange(0, 8)
            payload = bytes([round_index % 256]) * SECTOR
            yield driver.write(lba, payload)
            expected[lba] = payload
        out = {}
        for lba, _payload in expected.items():
            out[lba] = yield driver.read(lba, 1)
        return out

    observed = drive_to_completion(sim, body())
    assert driver.stats.segments_cleaned > 0
    assert driver.stats.live_sectors_copied >= 0
    for lba, payload in expected.items():
        assert observed[lba] == payload, lba


def test_sync_write_latency_includes_rotation(sim):
    """The §2 claim: LFS sync writes still pay rotational latency on
    average — unlike Trail, which predicts the head position."""
    driver, disk = make_lfs(sim)

    def body():
        for index in range(30):
            yield driver.write(index * 3, bytes([index]) * SECTOR)
            yield sim.timeout(3.7)  # arbitrary phase decorrelation

    drive_to_completion(sim, body())
    mean = driver.stats.sync_writes.mean
    # Expect at least overhead + a nontrivial average rotational wait.
    assert mean > disk.command_overhead_ms + 0.2 * disk.rotation.rotation_ms


def test_rejects_multiple_disks(sim):
    disks = {0: make_tiny_drive(sim, "a"), 1: make_tiny_drive(sim, "b")}
    with pytest.raises(TrailError):
        LfsDriver(sim, disks)


def test_rejects_tiny_segment(sim):
    disk = make_tiny_drive(sim, "d")
    with pytest.raises(TrailError):
        LfsDriver(sim, {0: disk}, segment_sectors=4)


def test_empty_write_rejected(sim):
    driver, _disk = make_lfs(sim)
    with pytest.raises(TrailError):
        driver.write(0, b"")
