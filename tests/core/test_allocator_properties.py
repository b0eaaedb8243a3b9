"""Property-based tests of the track allocator's core invariants.

The allocator keeps the current track's free runs, used-sector count
and largest free run up to date on every commit instead of rescanning
the track's used runs on every query.  The first test pins it to a
deliberately simple reference — the scan-based accounting it replaced,
which derives everything from the sorted used-run list on each call —
under randomized place/commit/advance/release sequences.  Any
divergence is a bug in the incremental bookkeeping.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocator import TrackAllocator
from repro.disk.geometry import DiskGeometry, Zone, uniform_geometry
from repro.errors import LogDiskFullError, TrailError


class NaiveTrack:
    """Reference model of one track: a sorted used-run list, rescanned
    on every query."""

    def __init__(self, spt, first_lba):
        self.spt = spt
        self.first_lba = first_lba
        self.used_runs = []

    def used_sectors(self):
        return sum(length for _start, length in self.used_runs)

    def utilization(self):
        return self.used_sectors() / self.spt

    def free_sectors(self):
        return self.spt - self.used_sectors()

    def largest_free_run(self):
        best = 0
        cursor = 0
        for start, length in self.used_runs:
            best = max(best, start - cursor)
            cursor = start + length
        return max(best, self.spt - cursor)

    def free_runs(self):
        runs = []
        cursor = 0
        for start, length in self.used_runs:
            if start > cursor:
                runs.append((cursor, start - cursor))
            cursor = start + length
        if cursor < self.spt:
            runs.append((cursor, self.spt - cursor))
        return runs

    def place(self, preferred, nsectors):
        if not 0 <= preferred < self.spt:
            raise TrailError(
                f"preferred sector {preferred} out of range [0, {self.spt})")
        if nsectors < 1 or nsectors > self.spt:
            return None
        best = best_distance = None
        for start, length in self.free_runs():
            if start + length <= preferred:
                continue  # run entirely before the head; wrap case
            candidate = max(start, preferred)
            if candidate + nsectors <= start + length:
                distance = candidate - preferred
                if best_distance is None or distance < best_distance:
                    best, best_distance = candidate, distance
        if best is not None:
            return best
        # Wrapped pass: any run that fits, closest after wrap-around.
        for start, length in self.free_runs():
            if nsectors <= length:
                distance = (start - preferred) % self.spt
                if best_distance is None or distance < best_distance:
                    best, best_distance = start, distance
        return best

    def commit(self, start, nsectors):
        end = start + nsectors
        if start < 0 or end > self.spt:
            raise TrailError(
                f"placement [{start}, {end}) exceeds track size {self.spt}")
        for used_start, used_length in self.used_runs:
            if start < used_start + used_length and used_start < end:
                raise TrailError(
                    f"placement [{start}, {end}) overlaps used run "
                    f"[{used_start}, {used_start + used_length})")
        self.used_runs.append((start, nsectors))
        self.used_runs.sort()
        return self.first_lba + start


#: Three zones, so tracks differ in size and the allocator must pick up
#: each new track's geometry on advance.
ZONED = DiskGeometry(heads=1, zones=[Zone(2, 16), Zone(2, 9), Zone(2, 23)])

allocator_ops = st.lists(
    st.one_of(
        st.tuples(st.just("place"), st.integers(0, 10**6),
                  st.integers(1, 24)),
        st.tuples(st.just("commit"), st.integers(-2, 24),
                  st.integers(1, 24)),
        st.tuples(st.just("release"), st.integers(0, 10**6), st.just(0)),
        st.tuples(st.just("advance"), st.just(0), st.just(0)),
    ),
    min_size=1, max_size=50)


def naive_track(geometry, track):
    return NaiveTrack(geometry.track_sectors(track),
                      geometry.track_first_lba(track))


def assert_same_track(allocator, naive):
    assert allocator.used_sectors() == naive.used_sectors()
    assert allocator.free_sectors() == naive.free_sectors()
    assert allocator.utilization() == naive.utilization()
    assert allocator.largest_free_run() == naive.largest_free_run()
    for preferred in range(naive.spt):
        for nsectors in (1, 2, 3, 5, naive.spt):
            assert allocator.place(preferred, nsectors) == \
                naive.place(preferred, nsectors), (preferred, nsectors)


@settings(max_examples=150, deadline=None)
@given(ops=allocator_ops)
def test_allocator_matches_scan_reference(ops):
    """Random place/commit/advance/release sequences agree with the
    scan-based reference after every step."""
    allocator = TrackAllocator(ZONED, usable_tracks=range(ZONED.num_tracks))
    naive = naive_track(ZONED, allocator.current_track)
    live = []  # the track of every live record, in commit order
    for op, first, second in ops:
        if op == "place":
            preferred = first % naive.spt
            start = allocator.place(preferred, second)
            assert start == naive.place(preferred, second)
            if start is not None:
                lba = allocator.commit_placement(start, second)
                assert lba == naive.commit(start, second)
                live.append(allocator.current_track)
        elif op == "commit":
            try:
                expected = naive.commit(first, second)
            except TrailError as error:
                with pytest.raises(TrailError) as raised:
                    allocator.commit_placement(first, second)
                assert str(raised.value) == str(error)
            else:
                assert allocator.commit_placement(first, second) == expected
                live.append(allocator.current_track)
        elif op == "release" and live:
            allocator.record_released(live.pop(first % len(live)))
        elif op == "advance":
            retired = naive.utilization()
            try:
                track = allocator.advance()
            except LogDiskFullError:
                pass
            else:
                assert allocator.retired_utilizations[-1] == retired
                naive = naive_track(ZONED, track)
        assert_same_track(allocator, naive)


def fresh_allocator(tracks=8, spt=16):
    geometry = uniform_geometry(cylinders=tracks, heads=1,
                                sectors_per_track=spt)
    return TrackAllocator(geometry, usable_tracks=range(tracks))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=60),
       st.data())
def test_placements_never_overlap(sizes, data):
    """Whatever sequence of placements and advances happens, committed
    runs on a track never overlap and utilization is consistent."""
    allocator = fresh_allocator()
    spt = 16
    placed_on_track = {}
    for size in sizes:
        preferred = data.draw(st.integers(0, spt - 1))
        start = allocator.place(preferred, size)
        if start is None:
            # Track too fragmented for this record: advance (tracks
            # are all released immediately so the ring never fills).
            track = allocator.current_track
            for _ in range(placed_on_track.get(track, 0)):
                allocator.record_released(track)
            placed_on_track[track] = 0
            allocator.advance()
            continue
        lba = allocator.commit_placement(start, size)
        track = allocator.current_track
        placed_on_track[track] = placed_on_track.get(track, 0) + 1
        assert allocator.geometry.track_of_lba(lba) == track
        # place() honoured the free map: utilization adds up.
        assert allocator.used_sectors() <= spt


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.data())
def test_fifo_ring_never_reuses_live_track(tracks, data):
    """Advancing around the ring only ever lands on fully-released
    tracks; a live track halts the ring with LogDiskFullError."""
    allocator = fresh_allocator(tracks=tracks)
    live = []  # tracks with one live record each, in fill order
    for _step in range(tracks * 3):
        action = data.draw(st.sampled_from(["write", "release"]))
        if action == "write":
            if allocator.place(0, 2) is None:
                continue
            start = allocator.place(0, 2)
            allocator.commit_placement(start, 2)
            live.append(allocator.current_track)
            try:
                allocator.advance()
            except LogDiskFullError:
                # Ring blocked by the oldest live track — verify that
                # is indeed still live.
                assert live, "full with nothing live"
        elif live:
            released = data.draw(st.sampled_from(live))
            allocator.record_released(released)
            live.remove(released)
    # Invariant: the number of live tracks never exceeds the ring.
    assert allocator.live_track_count <= tracks


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=30))
def test_retired_utilization_matches_commits(sizes):
    """Mean retired utilization equals committed sectors / capacity."""
    allocator = fresh_allocator(tracks=40)
    committed = 0
    for size in sizes:
        start = allocator.place(0, size)
        if start is None:
            allocator.record_released(allocator.current_track)
            allocator.advance()
            start = allocator.place(0, size)
        allocator.commit_placement(start, size)
        committed += size
        allocator.record_released(allocator.current_track)
        allocator.advance()
    total_capacity = allocator.tracks_consumed * 16
    expected = committed / total_capacity
    # One record per retired track, uniform capacity: the per-track
    # mean equals the aggregate ratio exactly.
    assert abs(allocator.mean_retired_utilization() - expected) < 1e-9