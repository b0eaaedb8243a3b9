"""Unit tests for the staging-buffer manager (§4.2 buffer rules)."""

import pytest

from repro.core.buffer import BufferManager, LiveRecord
from repro.errors import TrailError

SECTOR = 512


def make_record(sequence_id=0, track=1, header_lba=100, nsectors=1):
    return LiveRecord(sequence_id=sequence_id, track=track,
                      header_lba=header_lba, nsectors=nsectors)


class TestPinning:
    def test_pin_stores_latest(self):
        buffers = BufferManager()
        page, version = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        assert version == 1
        assert page.data == b"a" * SECTOR
        assert buffers.pinned_bytes == SECTOR
        assert buffers.pending_pages == 1

    def test_repin_bumps_version_and_replaces_data(self):
        buffers = BufferManager()
        page1, v1 = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        page2, v2 = buffers.pin(0, 10, b"b" * SECTOR, SECTOR)
        assert page1 is page2
        assert (v1, v2) == (1, 2)
        assert page2.data == b"b" * SECTOR
        assert buffers.pinned_bytes == SECTOR  # not double counted

    def test_repin_with_a_new_length_moves_pinned_bytes(self):
        """Re-pinning within the same sector count but with a different
        byte length tracks the new length, so the commit that drops the
        page returns pinned_bytes to exactly zero (the PR 4 drift)."""
        buffers = BufferManager()
        buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        page, version = buffers.pin(0, 10, b"b" * 300, SECTOR)
        assert buffers.pinned_bytes == 300
        buffers.attach(make_record(), page, version)
        assert buffers.committed(page, version)
        assert buffers.pinned_bytes == 0

    def test_distinct_extents_are_distinct_pages(self):
        buffers = BufferManager()
        buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.pin(0, 11, b"b" * SECTOR, SECTOR)
        buffers.pin(1, 10, b"c" * SECTOR, SECTOR)
        assert buffers.pending_pages == 3

    def test_attach_requires_pinned_page(self):
        buffers = BufferManager()
        page, version = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        record = make_record()
        buffers.attach(record, page, version)
        buffers.committed(page, version)
        with pytest.raises(TrailError):
            buffers.attach(make_record(1), page, version)

    def test_dedup_counted_when_requeued_while_queued(self):
        buffers = BufferManager()
        page, v1 = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        page.queued = True
        buffers.pin(0, 10, b"b" * SECTOR, SECTOR)
        assert buffers.writes_deduplicated == 1


class TestCommit:
    def test_commit_releases_record(self):
        released = []
        buffers = BufferManager(released.append)
        record = make_record()
        page, version = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.attach(record, page, version)
        fully = buffers.committed(page, version)
        assert fully is True
        assert released == [record]
        assert record.released
        assert buffers.pending_pages == 0
        assert buffers.pinned_bytes == 0

    def test_commit_of_old_version_keeps_page(self):
        released = []
        buffers = BufferManager(released.append)
        record1, record2 = make_record(1), make_record(2)
        page, v1 = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.attach(record1, page, v1)
        page.in_flight = True  # write-back of v1 started
        _page, v2 = buffers.pin(0, 10, b"b" * SECTOR, SECTOR)
        buffers.attach(record2, page, v2)
        fully = buffers.committed(page, v1)
        assert fully is False  # v2 still pending
        assert released == [record1]
        assert buffers.pending_pages == 1

    def test_commit_of_new_version_releases_all_older(self):
        """'one or multiple log disk tracks that share the same source
        buffer page may be reclaimed simultaneously' (§4.2)."""
        released = []
        buffers = BufferManager(released.append)
        records = [make_record(i, track=i) for i in range(3)]
        page = None
        for record in records:
            page, version = buffers.pin(0, 10, bytes([record.sequence_id])
                                        * SECTOR, SECTOR)
            buffers.attach(record, page, version)
        fully = buffers.committed(page, 3)
        assert fully is True
        assert released == records
        # The two superseded log copies count as cancelled writes.
        assert buffers.writes_cancelled == 2

    def test_record_spanning_two_pages_releases_when_both_commit(self):
        released = []
        buffers = BufferManager(released.append)
        record = make_record(nsectors=2)
        page_a, va = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.attach(record, page_a, va)
        page_b, vb = buffers.pin(0, 20, b"b" * SECTOR, SECTOR)
        buffers.attach(record, page_b, vb)
        buffers.committed(page_a, va)
        assert released == []
        buffers.committed(page_b, vb)
        assert released == [record]

    def test_commit_unknown_page_raises(self):
        buffers = BufferManager()
        page, version = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.committed(page, version)
        with pytest.raises(TrailError):
            buffers.committed(page, version)

    def test_over_release_detected(self):
        buffers = BufferManager()
        record = make_record()
        page, version = buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.attach(record, page, version)
        buffers.committed(page, version)
        record.outstanding = 0
        with pytest.raises(TrailError):
            buffers._release_reference(record)


class TestReads:
    def test_get_cached_exact_extent(self):
        buffers = BufferManager()
        buffers.pin(0, 10, b"x" * 2 * SECTOR, SECTOR)
        assert buffers.get_cached(0, 10, 2) == b"x" * 2 * SECTOR
        assert buffers.get_cached(0, 10, 1) is None
        assert buffers.get_cached(1, 10, 2) is None

    def test_find_covering_overlaps(self):
        buffers = BufferManager()
        buffers.pin(0, 10, b"x" * 4 * SECTOR, SECTOR)  # sectors 10-13
        buffers.pin(0, 30, b"y" * SECTOR, SECTOR)
        covering = buffers.find_covering(0, 12, 4)  # sectors 12-15
        assert len(covering) == 1
        assert covering[0].lba == 10
        assert buffers.find_covering(0, 14, 2) == []
        assert buffers.find_covering(1, 10, 10) == []


class TestCrash:
    def test_drop_all(self):
        buffers = BufferManager()
        buffers.pin(0, 10, b"a" * SECTOR, SECTOR)
        buffers.drop_all()
        assert buffers.pending_pages == 0
        assert buffers.pinned_bytes == 0
