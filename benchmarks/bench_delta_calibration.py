"""§3.1: empirical derivation of the prediction offset δ.

The paper's procedure: from a known reference point, issue
single-sector writes at target offsets δ = 0, 1, 2, ... from the
predicted head position and measure their latency.  Too-small δ values
pay a full rotation (the target sector has already passed by the time
the command overhead elapses); "the smallest δ value that does not
incur a full rotation delay is the final δ value".  For the paper's
ST41601N the result is "less than 15" sectors, accounting for the
fixed controller and on-disk processing overhead.

This benchmark runs that exact sweep against the ST41601N drive model
and prints the measured latency curve; it also verifies that the
mount-time analytic estimate the driver uses agrees with the measured
value.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_trail_system
from repro.core.prediction import HeadPositionPredictor
from repro.disk.presets import st41601n
from repro.sim import Simulation


@pytest.fixture(scope="module")
def calibration():
    sim = Simulation()
    drive = st41601n().make_drive(sim, "log")
    predictor = HeadPositionPredictor(
        drive.geometry, rotation_ms=drive.rotation.rotation_ms)
    result = sim.run_until(sim.process(
        predictor.calibrate(sim, drive, track=1, max_delta=25,
                            samples_per_delta=3)))
    return drive, predictor, result


def test_calibration_report(calibration, paper_numbers):
    drive, _predictor, result = calibration
    rotation = drive.rotation.rotation_ms
    paper_numbers.check(
        "delta_calibration",
        ["delta (sectors)", "mean write latency (ms)", "verdict"],
        [[delta, latency,
          "FULL ROTATION" if latency > 0.5 * rotation else "ok"]
         for delta, latency in enumerate(result.latencies_by_delta)],
        title=(f"Sec. 3.1 delta calibration sweep on the ST41601N model: "
               f"chosen delta = {result.delta_sectors} sectors "
               f"(paper: < 15) from {result.writes_issued} calibration "
               f"writes"))


def test_delta_below_paper_bound(calibration):
    _drive, _predictor, result = calibration
    assert result.delta_sectors < 15


def test_delta_covers_command_overhead(calibration):
    drive, _predictor, result = calibration
    sector_time = drive.rotation.sector_time(
        drive.geometry.track_sectors(1))
    assert result.delta_sectors >= int(
        drive.command_overhead_ms / sector_time)


def test_small_deltas_pay_full_rotation(calibration):
    drive, _predictor, result = calibration
    rotation = drive.rotation.rotation_ms
    # Everything clearly below the chosen delta misses the head.
    for delta in range(max(0, result.delta_sectors - 2)):
        assert result.latencies_by_delta[delta] > 0.5 * rotation, delta


def test_chosen_delta_is_fast(calibration):
    drive, _predictor, result = calibration
    latency = result.latencies_by_delta[result.delta_sectors]
    # Near the paper's ~1.4 ms overhead+transfer floor, far from a
    # full 11.1 ms rotation.
    assert latency < 4.0


def test_driver_estimate_close_to_measured(calibration):
    """The analytic mount-time estimate should land within a few
    sectors of the empirically calibrated value."""
    _drive, _predictor, result = calibration
    system = build_trail_system()
    estimate = system.driver.predictor.delta_sectors
    assert abs(estimate - result.delta_sectors) <= 4
