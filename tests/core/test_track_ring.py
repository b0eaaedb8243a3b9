"""The arithmetic track ring, and what it buys: a mount that is O(holes).

``reserved_layout`` used to build the usable-track list of the log disk
(35,713 integers on the ST41601N) and recovery and the allocator each
copied it; ``TrackRing`` answers the same sequence questions from the
sorted reserved tracks alone.
"""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.analysis.experiments import build_trail_system
from repro.core.allocator import TrackAllocator, TrackRing
from repro.core.driver import reserved_layout
from repro.disk.geometry import uniform_geometry
from repro.disk.presets import st41601n
from repro.errors import TrailError


@st.composite
def rings(draw):
    """(num_tracks, reserved): random holes plus the awkward ones —
    none, the first track, the last track, and adjacent runs."""
    num_tracks = draw(st.integers(1, 120))
    reserved = set(draw(st.sets(st.integers(0, num_tracks - 1))))
    if draw(st.booleans()):
        reserved.add(0)
    if draw(st.booleans()):
        reserved.add(num_tracks - 1)
    if draw(st.booleans()):
        start = draw(st.integers(0, num_tracks - 1))
        reserved.update(range(start, min(num_tracks, start + 3)))
    if draw(st.booleans()):
        reserved.clear()
    return num_tracks, reserved


class TestRingEqualsTheListItReplaces:
    @given(rings())
    def test_len_index_iteration_membership(self, case):
        num_tracks, reserved = case
        expected = [t for t in range(num_tracks) if t not in reserved]
        ring = TrackRing(num_tracks, reserved)
        assert len(ring) == len(expected)
        assert bool(ring) == bool(expected)
        assert list(ring) == expected
        assert [ring[at] for at in range(len(expected))] == expected
        assert [ring[-at] for at in range(1, len(expected) + 1)] \
            == expected[::-1]
        for track in range(-2, num_tracks + 2):
            assert (track in ring) == (track in expected)
        for beyond in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                ring[beyond]

    @given(rings(), st.slices(120))
    def test_slices_are_lists(self, case, window):
        num_tracks, reserved = case
        expected = [t for t in range(num_tracks) if t not in reserved]
        sliced = TrackRing(num_tracks, reserved)[window]
        assert isinstance(sliced, list)
        assert sliced == expected[window]

    def test_holes_outside_the_disk_are_ignored(self):
        assert list(TrackRing(4, {1, 7, -3})) == [0, 2, 3]


class TestReservedLayout:
    @given(st.integers(4, 60), st.integers(1, 4), st.integers(8, 96))
    def test_usable_tracks_match_the_reservation(self, cylinders, heads,
                                                 sectors_per_track):
        geometry = uniform_geometry(cylinders=cylinders, heads=heads,
                                    sectors_per_track=sectors_per_track)
        header_lbas, usable = reserved_layout(geometry)
        header_tracks = {geometry.track_of_lba(lba) for lba in header_lbas}
        reserved = {0, 1} | header_tracks
        assert list(usable) == [track for track in range(geometry.num_tracks)
                                if track not in reserved]
        assert len(header_lbas) == len(header_tracks)
        assert header_lbas[0] == 0

    @given(st.integers(1, 3), st.integers(8, 96))
    def test_a_fully_reserved_disk_is_refused(self, tracks,
                                              sectors_per_track):
        geometry = uniform_geometry(cylinders=tracks, heads=1,
                                    sectors_per_track=sectors_per_track)
        with pytest.raises(TrailError):
            reserved_layout(geometry)

    def test_default_log_disk_loses_four_tracks_to_the_layout(self):
        geometry = st41601n().geometry()
        _header_lbas, usable = reserved_layout(geometry)
        assert len(usable) == geometry.num_tracks - 4
        assert (usable[0], usable[-1]) == (2, geometry.num_tracks - 1)


class TestAllocatorOnARing:
    def test_advances_through_the_ring_and_wraps(self):
        geometry = uniform_geometry(cylinders=4, heads=2,
                                    sectors_per_track=16)
        allocator = TrackAllocator(geometry, TrackRing(8, {0, 3}))
        assert allocator.track_count == 6
        visited = [allocator.current_track]
        for _ in range(6):
            visited.append(allocator.advance())
        assert visited == [1, 2, 4, 5, 6, 7, 1]
        assert allocator.current_track == 1


def test_remount_of_the_default_log_disk_allocates_for_its_holes():
    """Mount is O(reserved tracks), not O(disk): the whole remount of an
    empty ST41601N log (35,717 tracks) stays under 256 KB of traced
    allocations.  The commit before the ring peaked at 4.6 MB here
    (three copies of the 35,713-element track list) and retained 1.7 MB.
    An empty log, because a remount that replays records also allocates
    data-disk ``SectorStore`` chunks."""
    system = build_trail_system()
    system.crash()
    tracemalloc.start()
    try:
        report = system.remount()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report is not None and report.records_found == 0
    assert peak < 256 * 1024
