"""Unit tests for circular FIFO track allocation."""

import pytest

from repro.core.allocator import TrackAllocator
from repro.disk.geometry import uniform_geometry
from repro.errors import LogDiskFullError, TrailError


@pytest.fixture
def geometry():
    return uniform_geometry(cylinders=4, heads=2, sectors_per_track=16)


@pytest.fixture
def allocator(geometry):
    # Tracks 1..7 usable (track 0 reserved), 16 sectors each.
    return TrackAllocator(geometry, usable_tracks=range(1, 8))


class TestPlacement:
    def test_empty_track_prefers_predicted_sector(self, allocator):
        assert allocator.place(5, 4) == 5

    def test_placement_wraps_to_earlier_run(self, allocator):
        allocator.commit_placement(8, 8)  # occupy the tail half
        assert allocator.place(10, 4) == 0

    def test_next_free_after_used_run(self, allocator):
        allocator.commit_placement(5, 3)  # sectors 5..7 used
        assert allocator.place(5, 2) == 8

    def test_no_fit_returns_none(self, allocator):
        allocator.commit_placement(0, 15)
        assert allocator.place(0, 2) is None

    def test_oversized_returns_none(self, allocator):
        assert allocator.place(0, 17) is None

    def test_preferred_out_of_range(self, allocator):
        with pytest.raises(TrailError):
            allocator.place(16, 1)

    def test_commit_overlap_rejected(self, allocator):
        allocator.commit_placement(4, 4)
        with pytest.raises(TrailError):
            allocator.commit_placement(6, 2)

    def test_commit_zero_length_rejected(self, allocator):
        """An empty placement is no record: it must not count one live
        on the track (which would pin the track in the FIFO window)."""
        for nsectors in (0, -1):
            with pytest.raises(TrailError, match="at least one"):
                allocator.commit_placement(3, nsectors)
        assert allocator.used_sectors() == 0
        assert allocator.live_track_count == 0
        assert allocator.place(3, 16) == 0

    def test_commit_beyond_track_rejected(self, allocator):
        with pytest.raises(TrailError):
            allocator.commit_placement(14, 4)

    def test_commit_returns_lba(self, allocator, geometry):
        lba = allocator.commit_placement(3, 2)
        assert lba == geometry.track_first_lba(1) + 3

    def test_utilization_and_free_sectors(self, allocator):
        assert allocator.utilization() == 0.0
        allocator.commit_placement(0, 4)
        assert allocator.utilization() == 0.25
        assert allocator.free_sectors() == 12
        assert allocator.largest_free_run() == 12


class TestFifoRotation:
    def test_advance_moves_to_next_track(self, allocator):
        assert allocator.current_track == 1
        allocator.commit_placement(0, 4)
        allocator.record_released(1)
        assert allocator.advance() == 2

    def test_advance_records_retired_utilization(self, allocator):
        allocator.commit_placement(0, 8)
        allocator.record_released(1)
        allocator.advance()
        assert allocator.retired_utilizations == [0.5]
        assert allocator.mean_retired_utilization() == 0.5

    def test_full_log_raises(self, allocator):
        # Fill every usable track with a live record.
        for _ in range(6):
            allocator.commit_placement(0, 2)
            allocator.advance()
        allocator.commit_placement(0, 2)
        with pytest.raises(LogDiskFullError):
            allocator.advance()

    def test_refused_advance_changes_no_state(self, geometry):
        """The driver retries a refused advance after every freed
        record; a refusal must not retire the track a second time."""
        ring = TrackAllocator(geometry, usable_tracks=range(1, 4))
        for _ in range(2):
            ring.commit_placement(0, 2)
            ring.advance()
        ring.commit_placement(3, 5)
        before = (ring.tracks_consumed, list(ring.retired_utilizations),
                  list(ring._used_runs), ring.current_track)
        assert before[0] == 2
        for _ in range(2):
            with pytest.raises(LogDiskFullError):
                ring.advance()
            assert (ring.tracks_consumed, ring.retired_utilizations,
                    ring._used_runs, ring.current_track) == before
        ring.record_released(1)
        assert ring.advance() == 1
        assert ring.tracks_consumed == 3
        assert ring.retired_utilizations == [0.125, 0.125, 0.3125]

    def test_wraps_over_released_tracks(self, allocator):
        for _ in range(6):
            allocator.commit_placement(0, 2)
            allocator.advance()
        allocator.commit_placement(0, 2)
        # Release everything: the ring is reusable again.
        for track in range(1, 8):
            allocator.record_released(track)
        assert allocator.advance() == 1  # wrapped around
        # The wrapped-onto track accepts fresh placements.
        assert allocator.place(0, 16) == 0

    def test_fifo_discipline_blocks_on_oldest(self, allocator):
        """A mid-window track whose records all committed early is not
        reclaimed until the older track ahead of it is."""
        allocator.commit_placement(0, 2)      # track 1, stays live
        allocator.advance()
        allocator.commit_placement(0, 2)      # track 2
        allocator.record_released(2)          # track 2 commits first
        assert allocator.live_track_count == 1
        # Fill remaining tracks 3..7.
        for _ in range(5):
            allocator.advance()
            allocator.commit_placement(0, 2)
        # Next advance would reach track 1 — still live -> full,
        # even though track 2 committed long ago (FIFO reclamation).
        with pytest.raises(LogDiskFullError):
            allocator.advance()
        allocator.record_released(1)
        assert allocator.advance() == 1

    def test_release_without_record_raises(self, allocator):
        with pytest.raises(TrailError):
            allocator.record_released(3)

    def test_over_release_raises(self, allocator):
        allocator.commit_placement(0, 1)
        allocator.record_released(1)
        with pytest.raises(TrailError):
            allocator.record_released(1)

    def test_tracks_consumed_counter(self, allocator):
        allocator.commit_placement(0, 1)
        allocator.record_released(1)
        allocator.advance()
        allocator.advance()
        assert allocator.tracks_consumed == 2


class TestConstruction:
    def test_empty_usable_rejected(self, geometry):
        with pytest.raises(TrailError):
            TrackAllocator(geometry, usable_tracks=[])

    def test_duplicates_rejected(self, geometry):
        with pytest.raises(TrailError):
            TrackAllocator(geometry, usable_tracks=[1, 1, 2])

    def test_track_count(self, allocator):
        assert allocator.track_count == 7
