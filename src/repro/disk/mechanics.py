"""Mechanical timing models: seek arm and spindle rotation.

The seek model follows the classic three-point characterization used in
disk-simulation literature (Worthington et al., reference [19] of the
paper): the drive datasheet gives track-to-track, average, and
full-stroke seek times, and intermediate distances are interpolated on
an ``a + b*sqrt(d) + c*d`` curve (square-root-dominated for short
seeks where the arm never reaches full velocity, linear for long
coast-phase seeks).

The rotation model exposes the platter's angular position as a pure
function of simulated time — the spindle never stops — plus an optional
*phase drift* hook modelling rotation-speed deviation and periodic
internal disk activity (paper §3.1 cites these as the reason Trail must
periodically re-anchor its prediction reference point).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.errors import GeometryError
from repro.units import Cylinders, Ms, Sectors, rpm_to_rotation_ms


class SeekModel:
    """Seek-time curve fitted to track-to-track / average / full-stroke.

    ``head_switch_ms`` is the cost of activating a different head within
    the same cylinder (includes settle); this is what Trail's "move to
    the next track" costs most of the time, the paper's ~1.5 ms
    repositioning overhead.
    """

    def __init__(
        self,
        num_cylinders: Cylinders,
        track_to_track_ms: Ms,
        average_ms: Ms,
        full_stroke_ms: Ms,
        head_switch_ms: Ms = 1.5,
    ) -> None:
        if num_cylinders < 2:
            raise GeometryError(f"need >= 2 cylinders, got {num_cylinders}")
        if not 0 < track_to_track_ms <= average_ms <= full_stroke_ms:
            raise GeometryError(
                "seek times must satisfy 0 < track-to-track <= average "
                f"<= full-stroke, got {track_to_track_ms}, {average_ms}, "
                f"{full_stroke_ms}")
        if head_switch_ms < 0:
            raise GeometryError(
                f"head switch time must be >= 0, got {head_switch_ms}")
        self.num_cylinders = num_cylinders
        self.track_to_track_ms = track_to_track_ms
        self.average_ms = average_ms
        self.full_stroke_ms = full_stroke_ms
        self.head_switch_ms = head_switch_ms
        self._fit_curve()
        #: Memoized seek times by cylinder distance: the fitted curve is
        #: a pure function of distance and a workload revisits the same
        #: few distances (track-to-track, repositioning hops) constantly.
        self._seek_cache: Dict[int, float] = {}

    def _fit_curve(self) -> None:
        """Solve t(d) = a + b*sqrt(d) + c*d through the three known points.

        The average seek distance of a random workload is ~1/3 of the
        full stroke, which is where the datasheet 'average' number is
        anchored.
        """
        d1 = 1.0
        d2 = max(2.0, (self.num_cylinders - 1) / 3.0)
        d3 = float(self.num_cylinders - 1)
        t1, t2, t3 = self.track_to_track_ms, self.average_ms, self.full_stroke_ms
        if d2 >= d3 or d3 <= d1:
            # Too few cylinders for three distinct anchor points (test
            # drives): fall back to linear interpolation between the
            # track-to-track and full-stroke times.
            self._a = t1
            self._b = 0.0
            self._c = 0.0 if d3 <= d1 else (t3 - t1) / (d3 - d1)
            self._a -= self._c * d1
            return
        # 3x3 linear system solved by elimination (rows: [1, sqrt(d), d]).
        rows = [
            [1.0, math.sqrt(d1), d1, t1],
            [1.0, math.sqrt(d2), d2, t2],
            [1.0, math.sqrt(d3), d3, t3],
        ]
        for pivot in range(3):
            pivot_row = max(range(pivot, 3), key=lambda r: abs(rows[r][pivot]))
            rows[pivot], rows[pivot_row] = rows[pivot_row], rows[pivot]
            if abs(rows[pivot][pivot]) < 1e-12:
                raise GeometryError("degenerate seek-curve fit")
            for r in range(3):
                if r == pivot:
                    continue
                factor = rows[r][pivot] / rows[pivot][pivot]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot])]
        self._a = rows[0][3] / rows[0][0]
        self._b = rows[1][3] / rows[1][1]
        self._c = rows[2][3] / rows[2][2]

    def seek_time(self, from_cylinder: Cylinders,
                  to_cylinder: Cylinders) -> Ms:
        """Arm travel time between two cylinders (0 if they are equal)."""
        distance = to_cylinder - from_cylinder
        if distance == 0:
            return 0.0
        if distance < 0:
            distance = -distance
        time = self._seek_cache.get(distance)
        if time is None:
            time = self._a + self._b * math.sqrt(distance) + self._c * distance
            # The fitted curve can dip slightly below the track-to-track
            # time for very short seeks if the datasheet points are
            # unusual; the physical floor is the track-to-track time.
            if time < self.track_to_track_ms:
                time = self.track_to_track_ms
            self._seek_cache[distance] = time
        return time

    def reposition_time(
        self, from_cylinder: Cylinders, from_head: int,
        to_cylinder: Cylinders, to_head: int,
    ) -> Ms:
        """Time to move the active head between two tracks.

        Same track: free.  Same cylinder: one head switch.  Different
        cylinder: a seek, which subsumes the head-switch settle.
        """
        if from_cylinder == to_cylinder:
            if from_head == to_head:
                return 0.0
            return self.head_switch_ms
        return self.seek_time(from_cylinder, to_cylinder)


class RotationModel:
    """Spindle angular position as a function of simulated time.

    ``phase_drift`` maps absolute time (ms) to an extra phase offset in
    fractions of a revolution.  A perfectly calibrated prediction made
    from a reference point taken at time ``t0`` accrues error
    ``phase_drift(t1) - phase_drift(t0)`` by time ``t1`` — which is why
    Trail re-anchors its reference after long idle periods.
    """

    def __init__(
        self,
        rpm: float,
        phase_drift: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.rpm = rpm
        self.rotation_ms = rpm_to_rotation_ms(rpm)
        self._phase_drift = phase_drift
        #: Memoized per-SPT sector times: the per-request service path
        #: recomputes this constant on every transfer otherwise.  (Kept
        #: as the original division so results stay bit-identical.)
        self._sector_time_cache: Dict[int, float] = {}

    @property
    def average_rotational_latency_ms(self) -> Ms:
        """Expected wait for a random target sector: half a revolution."""
        return self.rotation_ms / 2.0

    def angle_at(self, time_ms: Ms) -> float:
        """Platter phase in [0, 1) at ``time_ms`` (fraction of a rev)."""
        phase = time_ms / self.rotation_ms
        if self._phase_drift is not None:
            phase += self._phase_drift(time_ms)
        return phase % 1.0

    def sector_time(self, sectors_per_track: int) -> float:
        """Time for one sector to pass under the head on this track."""
        time = self._sector_time_cache.get(sectors_per_track)
        if time is None:
            if sectors_per_track < 1:
                raise GeometryError(
                    f"sectors_per_track must be >= 1, got {sectors_per_track}")
            time = self.rotation_ms / sectors_per_track
            self._sector_time_cache[sectors_per_track] = time
        return time

    def sector_under_head(self, time_ms: Ms,
                          sectors_per_track: int) -> Sectors:
        """Index of the sector whose angular span covers the head now."""
        return int(self.angle_at(time_ms) * sectors_per_track) % sectors_per_track

    def time_until_sector(
        self, time_ms: Ms, sector: Sectors, sectors_per_track: int,
    ) -> Ms:
        """Rotational wait from ``time_ms`` until the *start* of ``sector``.

        Returns a value in [0, rotation_ms).  If the head sits exactly on
        the sector boundary the wait is zero; if the boundary just
        passed, the wait is almost a full revolution — this asymmetry is
        precisely what makes Trail's δ calibration matter.
        """
        if not 0 <= sector < sectors_per_track:
            raise GeometryError(
                f"sector {sector} out of range [0, {sectors_per_track})")
        if self._phase_drift is None:
            # Inline of angle_at's drift-free branch (bit-identical math).
            current_angle = (time_ms / self.rotation_ms) % 1.0
        else:
            current_angle = self.angle_at(time_ms)
        target_angle = sector / sectors_per_track
        delta = (target_angle - current_angle) % 1.0
        if delta >= 1.0:
            # Float rounding can land the modulo exactly on 1.0 when the
            # head sits an infinitesimal distance past the boundary.
            delta = 0.0
        return delta * self.rotation_ms
