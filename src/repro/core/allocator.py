"""Circular FIFO track allocation for the log disk (§4.2, §4.4).

The entire log disk is a circular buffer whose basic unit is the
*track*.  The allocator maintains the paper's core invariant — the
head always sits on a track with enough free space that the next write
can proceed without overwriting live data — and the FIFO discipline
that makes Trail's garbage collection free: tracks are reused strictly
in the order they were filled, and a track is only reclaimed once
every record on it has been committed to the data disks.

Within the active track the allocator also answers placement queries:
given the predicted head sector, find the closest free contiguous run
that can hold a record, which is what bounds rotational latency.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from math import fsum
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.disk.geometry import DiskGeometry
from repro.errors import LogDiskFullError, TrailError
from repro.units import Lba, Sectors, Tracks


class TrackRing(Sequence[int]):
    """The circular log's position -> track map, without the list.

    Equal as a sequence to ``[t for t in range(num_tracks) if t not in
    holes]``, but immutable and O(holes) to build and hold: mounting a
    35,717-track log disk must not materialise its track list.
    """

    def __init__(self, num_tracks: Tracks, holes: Iterable[Tracks]) -> None:
        skipped = sorted({hole for hole in holes if 0 <= hole < num_tracks})
        self._length = num_tracks - len(skipped)
        #: ``_resume[i]``: the first position past the i-th hole, so a
        #: position has as many holes below its track as entries <= it.
        self._resume = [hole - index for index, hole in enumerate(skipped)]

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: Any) -> Any:  # int -> Tracks, slice -> list
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("track ring position out of range")
        return index + bisect_right(self._resume, index)


class TrackAllocator:
    """Allocates log-disk space in FIFO track order."""

    def __init__(
        self,
        geometry: DiskGeometry,
        usable_tracks: Sequence[int],
    ) -> None:
        if not usable_tracks:
            raise TrailError("allocator needs at least one usable track")
        self.geometry = geometry
        # A ring or a range cannot repeat a track: kept as handed over.
        tracks = usable_tracks
        if not isinstance(tracks, (TrackRing, range)):
            tracks = tuple(tracks)
            if len(set(tracks)) != len(tracks):
                raise TrailError("usable_tracks contains duplicates")
        self._tracks = tracks
        self._position = 0
        #: Live (uncommitted) record count per in-window track.
        self._live_counts: Dict[int, int] = {}
        #: Tracks in fill order that still hold live records (FIFO window).
        self._window: Deque[int] = deque()
        #: Final utilization of each retired track, for the §5.2 numbers.
        self.retired_utilizations: List[float] = []
        #: Total tracks consumed (advances), for space-efficiency stats.
        self.tracks_consumed = 0
        self._enter(self._tracks[0])

    def _enter(self, track: Tracks) -> None:
        """Make ``track`` the empty active (tail) track."""
        #: The active (tail) track; re-read from the ring only on advance.
        self.current_track: Tracks = track
        _cylinder, _head, spt, first_lba = self.geometry.track_info(track)
        self._spt: Sectors = spt
        self._first_lba: Lba = first_lba
        #: Used (start, length) runs on the current track, sorted: the
        #: placements an overlap error names.
        self._used_runs: List[Tuple[int, int]] = []
        #: Free [start, end) runs on the current track, sorted and
        #: never adjacent: what ``place`` walks and ``commit`` splits.
        self._free_runs: List[Tuple[int, int]] = [(0, spt)]
        self._used: Sectors = 0
        self._largest_free: int = spt

    # ------------------------------------------------------------------
    # Introspection

    @property
    def track_count(self) -> int:
        """Number of tracks in the circular log."""
        return len(self._tracks)

    @property
    def live_track_count(self) -> int:
        """Tracks currently holding at least one uncommitted record."""
        return sum(1 for count in self._live_counts.values() if count > 0)

    def used_sectors(self, track: Optional[Tracks] = None) -> Sectors:
        """Used sector count on ``track`` (default: the current track)."""
        if track is not None and track != self.current_track:
            raise TrailError(
                "per-sector accounting only exists for the current track")
        return self._used

    def utilization(self) -> float:
        """Fraction of the current track already written."""
        return self._used / self._spt

    def free_sectors(self) -> Sectors:
        """Free sectors remaining on the current track."""
        return self._spt - self._used

    def largest_free_run(self) -> int:
        """Length of the largest contiguous free run on the current track."""
        return self._largest_free

    def mean_retired_utilization(self) -> float:
        """Average final utilization of retired tracks (§5.2 metric)."""
        if not self.retired_utilizations:
            return 0.0
        return fsum(self.retired_utilizations) / len(self.retired_utilizations)

    # ------------------------------------------------------------------
    # Placement on the current track

    def place(self, preferred_sector: Sectors,
              nsectors: Sectors) -> Optional[Sectors]:
        """Find a free contiguous run of ``nsectors`` on the current track.

        Prefers the run starting exactly at ``preferred_sector`` (the
        predicted head position); otherwise returns the start of the
        next free run at or after it, wrapping to earlier sectors as a
        last resort.  Returns None if no run fits — the caller should
        advance to the next track.  Runs never wrap past the end of the
        track because sector LBAs would not be contiguous.
        """
        spt = self._spt
        if not 0 <= preferred_sector < spt:
            raise TrailError(
                f"preferred sector {preferred_sector} out of range "
                f"[0, {spt})")
        if nsectors < 1 or nsectors > spt:
            return None
        # The runs are sorted, so the first that fits at or after the
        # head is the closest; failing that, the first that fits at all
        # is the closest after wrap-around.
        for start, end in self._free_runs:
            candidate = start if start > preferred_sector else preferred_sector
            if candidate + nsectors <= end:
                return candidate
        for start, end in self._free_runs:
            if start + nsectors <= end:
                return start
        return None

    def commit_placement(self, start_sector: Sectors,
                         nsectors: Sectors) -> Lba:
        """Mark ``nsectors`` at ``start_sector`` used; returns the LBA.

        Also counts one live record on the current track.
        """
        if nsectors < 1:
            raise TrailError(
                f"placement of {nsectors} sectors: a record needs at "
                "least one")
        end_sector = start_sector + nsectors
        if start_sector < 0 or end_sector > self._spt:
            raise TrailError(
                f"placement [{start_sector}, {end_sector}) "
                f"exceeds track size {self._spt}")
        runs = self._free_runs
        # The last free run starting at or before the placement: every
        # run ends at or before spt, so it sorts below (start, spt).
        index = bisect_right(runs, (start_sector, self._spt)) - 1
        if index < 0 or end_sector > runs[index][1]:
            raise self._overlap_error(start_sector, end_sector)
        free_start, free_end = runs[index]
        pieces = []
        if free_start < start_sector:
            pieces.append((free_start, start_sector))
        if end_sector < free_end:
            pieces.append((end_sector, free_end))
        runs[index:index + 1] = pieces
        if free_end - free_start == self._largest_free:
            self._largest_free = max(
                [end - start for start, end in runs], default=0)
        insort(self._used_runs, (start_sector, nsectors))
        self._used += nsectors
        track = self.current_track
        if track not in self._live_counts:
            self._live_counts[track] = 0
            self._window.append(track)
        self._live_counts[track] += 1
        return self._first_lba + start_sector

    def _overlap_error(self, start_sector: Sectors,
                       end_sector: Sectors) -> TrailError:
        """The error for a placement outside every free run, naming the
        first used run it overlaps (the free runs are exact, so one does)."""
        used_start, used_length = next(
            (start, length) for start, length in self._used_runs
            if start_sector < start + length and start < end_sector)
        return TrailError(
            f"placement [{start_sector}, {end_sector}) "
            f"overlaps used run [{used_start}, "
            f"{used_start + used_length})")

    # ------------------------------------------------------------------
    # Track rotation (FIFO)

    def advance(self) -> int:
        """Move the tail to the next free track and return it.

        Raises :class:`LogDiskFullError` if the next track in circular
        order still holds live records — the entire log is full (§4.4).
        A refused advance retires nothing: the driver retries it after
        every freed record, and each retry must not count the same
        track again in the §5.2 utilization figures.
        """
        self._reap_window()
        next_position = (self._position + 1) % len(self._tracks)
        next_track = self._tracks[next_position]
        if self._live_counts.get(next_track, 0) > 0 or (
                self._window and self._window[0] == next_track):
            raise LogDiskFullError(
                f"log disk full: track {next_track} still holds "
                f"{self._live_counts.get(next_track, 0)} live records")
        self.retired_utilizations.append(self._used / self._spt)
        self.tracks_consumed += 1
        self._position = next_position
        self._enter(next_track)
        # Stale accounting from the previous lap, if any.
        self._live_counts.pop(next_track, None)
        return next_track

    def record_released(self, track: Tracks) -> None:
        """One record on ``track`` was committed to its data disk."""
        count = self._live_counts.get(track)
        if not count:
            raise TrailError(
                f"release on track {track} with no live records")
        self._live_counts[track] = count - 1
        self._reap_window()

    def _reap_window(self) -> None:
        """Free fully committed tracks from the FIFO head.

        A mid-window track whose records all committed early stays
        allocated until it reaches the head: deallocation is strictly
        FIFO, which is what keeps Trail's cleaning cost at zero.
        """
        while self._window:
            head = self._window[0]
            if head == self.current_track:
                break
            if self._live_counts.get(head, 0) > 0:
                break
            self._window.popleft()
            self._live_counts.pop(head, None)
