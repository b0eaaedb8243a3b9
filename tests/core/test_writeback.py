"""Unit tests for the asynchronous write-back scheduler."""

import pytest

from repro.core.buffer import BufferManager, LiveRecord
from repro.core.writeback import WritebackScheduler
from repro.errors import TrailError
from tests.conftest import make_tiny_drive

SECTOR = 512


def make_setup(sim):
    disk = make_tiny_drive(sim, "data")
    released = []
    buffers = BufferManager(released.append)
    scheduler = WritebackScheduler(sim, {0: disk}, buffers)
    return disk, buffers, scheduler, released


def pin_and_enqueue(buffers, scheduler, lba, data, sequence_id=0):
    record = LiveRecord(sequence_id=sequence_id, track=1,
                        header_lba=100 + sequence_id, nsectors=1)
    page, version = buffers.pin(0, lba, data, SECTOR)
    buffers.attach(record, page, version)
    scheduler.enqueue(page)
    return record, page


def test_page_reaches_data_disk(sim):
    disk, buffers, scheduler, released = make_setup(sim)
    record, _page = pin_and_enqueue(buffers, scheduler, 50, b"W" * SECTOR)
    scheduler.start()
    sim.run(until=100)
    assert disk.store.read_sector(50) == b"W" * SECTOR
    assert released == [record]
    assert scheduler.pages_written == 1
    assert scheduler.quiescent


def test_enqueue_dedup(sim):
    _disk, buffers, scheduler, _released = make_setup(sim)
    _record, page = pin_and_enqueue(buffers, scheduler, 50, b"a" * SECTOR)
    scheduler.enqueue(page)
    scheduler.enqueue(page)
    assert scheduler.backlog == 1


def test_newer_version_requeued_after_commit(sim):
    """A version pinned while the write-back is in flight gets its own
    write-back afterwards, and the final disk state is the newest."""
    disk, buffers, scheduler, released = make_setup(sim)
    record1, page = pin_and_enqueue(buffers, scheduler, 50, b"1" * SECTOR, 1)
    scheduler.start()

    record2 = LiveRecord(sequence_id=2, track=2, header_lba=200, nsectors=1)

    def mutate():
        # Wait until the first write-back is in flight, then repin.
        while not page.in_flight:
            yield sim.timeout(0.1)
        _page, version = buffers.pin(0, 50, b"2" * SECTOR, SECTOR)
        buffers.attach(record2, page, version)

    sim.process(mutate())
    sim.run(until=200)
    assert disk.store.read_sector(50) == b"2" * SECTOR
    assert released == [record1, record2]
    assert scheduler.pages_written == 2
    assert scheduler.quiescent


def test_unknown_disk_id_fails(sim):
    _disk, buffers, scheduler, _released = make_setup(sim)
    record = LiveRecord(sequence_id=0, track=1, header_lba=100, nsectors=1)
    page, version = buffers.pin(9, 50, b"x" * SECTOR, SECTOR)
    buffers.attach(record, page, version)
    scheduler.enqueue(page)
    scheduler.start()
    with pytest.raises(TrailError):
        sim.run(until=100)


def test_stop_terminates_process(sim):
    _disk, _buffers, scheduler, _released = make_setup(sim)
    process = scheduler.start()
    scheduler.stop()
    sim.run(until=10)
    assert not process.is_alive


def test_double_start_rejected(sim):
    _disk, _buffers, scheduler, _released = make_setup(sim)
    scheduler.start()
    with pytest.raises(TrailError):
        scheduler.start()


def test_halted_disk_stops_scheduler_quietly(sim):
    disk, buffers, scheduler, released = make_setup(sim)
    pin_and_enqueue(buffers, scheduler, 50, b"a" * SECTOR)
    scheduler.start()

    def killer():
        yield sim.timeout(0.5)
        disk.halt()

    sim.process(killer())
    sim.run(until=100)
    assert released == []  # never committed; recovery will replay


def test_needs_a_data_disk(sim):
    with pytest.raises(TrailError):
        WritebackScheduler(sim, {}, BufferManager())
