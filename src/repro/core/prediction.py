"""Disk-head position prediction (§3.1).

Commodity disks cannot be told "write wherever the head is", so Trail
*predicts* where the head will be and addresses the write there.  The
predictor keeps a reference point ``(T0, LBA0)`` — a timestamp taken
immediately after a repositioning read completes, paired with the block
address the head moved to — and extrapolates the platter's angle from
the rotation period stored in the on-disk geometry record:

    S1 = (((T1 - T0) mod RotateTime) / RotateTime * SPT + S0 + δ) mod SPT

δ is an empirically derived sector offset covering command-processing
and other fixed overheads; it is measured by :meth:`calibrate`, which
reproduces the paper's procedure (sweep δ upward until single-sector
writes stop paying a full rotation).

The predictor never reads the simulator's ground-truth head position:
everything is computed from its own reference point, so rotation-speed
drift makes predictions go stale exactly as on real hardware — which
is what the periodic idle repositioning exists to fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskGeometry
from repro.errors import TrailError
from repro.sim import Event, LatencyRecorder, Simulation
from repro.units import Lba, Ms, Sectors, Tracks


@dataclass
class CalibrationResult:
    """Outcome of a δ-calibration sweep."""

    #: The chosen δ in sectors: smallest value that avoids a full
    #: rotation on every sample.
    delta_sectors: int
    #: Mean measured write latency per candidate δ, for inspection.
    latencies_by_delta: List[float]
    #: Number of single-sector calibration writes issued.
    writes_issued: int


class HeadPositionPredictor:
    """Predicts the sector under the log disk's head at a future instant."""

    def __init__(
        self,
        geometry: DiskGeometry,
        rotation_ms: Ms,
        delta_sectors: Sectors = 0,
    ) -> None:
        if rotation_ms <= 0:
            raise TrailError(f"rotation time must be positive, got {rotation_ms}")
        if delta_sectors < 0:
            raise TrailError(f"delta must be >= 0, got {delta_sectors}")
        self.geometry = geometry
        self.rotation_ms = rotation_ms
        self.delta_sectors = delta_sectors
        self._t0: Optional[float] = None
        self._angle0: Optional[float] = None
        #: Realized rotational waits of predicted writes (driver-fed).
        self.realized_rotation = LatencyRecorder()

    @property
    def has_reference(self) -> bool:
        """True once a reference point has been anchored."""
        return self._t0 is not None

    def set_reference(self, t0: Ms, lba0: Lba) -> None:
        """Anchor the reference point after a repositioning access.

        ``lba0`` is the block the head just finished reading/writing at
        time ``t0``; the head therefore sits at the *end* of that
        sector's angular span.
        """
        _track, first_lba, spt = self.geometry.track_extent_of_lba(lba0)
        self._t0 = t0
        self._angle0 = ((lba0 - first_lba + 1) % spt) / spt

    def predict_angle(self, t1: Ms) -> float:
        """Predicted platter phase in [0, 1) at time ``t1``."""
        if self._t0 is None or self._angle0 is None:
            raise TrailError("prediction requested before a reference was set")
        return (self._angle0 + (t1 - self._t0) / self.rotation_ms) % 1.0

    def predict_sector(self, t1: Ms, track: Tracks) -> Sectors:
        """Predicted sector index on ``track`` for a write issued at ``t1``.

        Applies δ: the returned sector is far enough ahead of the head
        that the command-processing overhead elapses before the target
        comes around.
        """
        spt = self.geometry.track_sectors(track)
        base = int(self.predict_angle(t1) * spt)
        return (base + self.delta_sectors) % spt

    def predict_lba(self, t1: Ms, track: Tracks) -> Lba:
        """Predicted target LBA on ``track`` for a write issued at ``t1``."""
        return (self.geometry.track_first_lba(track)
                + self.predict_sector(t1, track))

    # ------------------------------------------------------------------

    def calibrate(
        self,
        sim: Simulation,
        drive: DiskDrive,
        track: Tracks = 1,
        max_delta: Optional[int] = None,
        samples_per_delta: int = 3,
        consecutive_required: int = 2,
    ) -> Generator[Event, Any, CalibrationResult]:
        """Measure δ against a real (simulated) drive — run as a process.

        Reproduces the paper's procedure: anchor a reference with a
        single-sector read, then for each candidate δ issue
        single-sector writes at the predicted position and measure their
        latency.  A δ is *good* if no sample pays a (near-)full
        rotation.  The chosen δ is the smallest good value that is
        followed by ``consecutive_required - 1`` further good values
        (guarding against a lucky sample at a too-small δ).

        Returns a :class:`CalibrationResult`; also installs the chosen
        δ on this predictor.
        """
        spt = self.geometry.track_sectors(track)
        if max_delta is None:
            max_delta = spt - 1
        sector_time = self.rotation_ms / spt
        # A correct δ costs at most the residual wait to the next sector
        # boundary plus transfer; "full rotation" failures cost nearly
        # rotation_ms more.  Half a rotation cleanly separates the two.
        failure_threshold = (drive.command_overhead_ms + sector_time
                             + 0.5 * self.rotation_ms)

        latencies: List[float] = []
        writes_issued = 0
        good_run_start: Optional[int] = None
        chosen: Optional[int] = None
        saved_delta = self.delta_sectors

        for delta in range(max_delta + 1):
            self.delta_sectors = delta
            worst = 0.0
            total = 0.0
            for _ in range(samples_per_delta):
                # Re-anchor: read one sector on the calibration track.
                anchor_lba = self.geometry.track_first_lba(track)
                result = yield drive.read(anchor_lba, 1)
                self.set_reference(sim.now, anchor_lba)
                target = self.predict_lba(sim.now, track)
                result = yield drive.write(target, bytes([delta % 256]) * self.geometry.sector_size)
                writes_issued += 1
                worst = max(worst, result.latency_ms)
                total += result.latency_ms
            latencies.append(total / samples_per_delta)
            if worst < failure_threshold:
                if good_run_start is None:
                    good_run_start = delta
                if delta - good_run_start + 1 >= consecutive_required:
                    chosen = good_run_start
                    break
            else:
                good_run_start = None

        if chosen is None:
            self.delta_sectors = saved_delta
            raise TrailError(
                f"delta calibration failed: no good delta in [0, {max_delta}]")
        self.delta_sectors = chosen
        return CalibrationResult(
            delta_sectors=chosen,
            latencies_by_delta=latencies,
            writes_issued=writes_issued)
