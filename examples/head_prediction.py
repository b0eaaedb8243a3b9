#!/usr/bin/env python3
"""Inside the predictor: δ calibration and rotation drift.

Part 1 reruns the paper's §3.1 calibration experiment: single-sector
writes at increasing offsets δ from the predicted head position.  Every
δ that undershoots the command-processing overhead pays a full platter
rotation; the first one that clears it completes in ~1.5 ms.

Part 2 shows why Trail repositions the head periodically when idle:
with a drifting spindle, predictions from a stale reference point miss,
and the idle repositioner's cheap re-anchoring reads keep them sharp.

Run:  python examples/head_prediction.py
"""

from repro import Simulation, TrailConfig, TrailDriver, st41601n, \
    tiny_test_disk, wd_caviar_10gb
from repro.core.prediction import HeadPositionPredictor


def calibration_demo() -> None:
    sim = Simulation()
    drive = st41601n().make_drive(sim, "log")
    predictor = HeadPositionPredictor(
        drive.geometry, rotation_ms=drive.rotation.rotation_ms)

    result = sim.run_until(sim.process(
        predictor.calibrate(sim, drive, track=1, max_delta=20,
                            samples_per_delta=2)))

    print("Part 1 — delta calibration on the ST41601N "
          "(rotation 11.1 ms):")
    print(f"  {'delta':>6} {'latency (ms)':>13}")
    for delta, latency in enumerate(result.latencies_by_delta):
        marker = "  <-- chosen" if delta == result.delta_sectors else ""
        print(f"  {delta:>6} {latency:>13.2f}{marker}")
    print(f"  smallest delta avoiding a full rotation: "
          f"{result.delta_sectors} sectors (paper: < 15)\n")


def drift_demo() -> None:
    print("Part 2 — rotation drift vs the idle repositioner:")
    drift_rate = 0.8  # revolutions of phase drift per second

    def run(interval_ms: float) -> float:
        sim = Simulation()
        log_drive = tiny_test_disk(cylinders=30).make_drive(
            sim, "log", phase_drift=lambda t: t / 1000.0 * drift_rate)
        data_drive = tiny_test_disk(cylinders=120, heads=4,
                                    sectors_per_track=32).make_drive(
            sim, "data")
        config = TrailConfig(idle_reposition_interval_ms=interval_ms)
        TrailDriver.format_disk(log_drive)
        driver = TrailDriver(sim, log_drive, {0: data_drive}, config)

        def workload():
            yield sim.process(driver.mount())
            total = 0.0
            for index in range(10):
                yield sim.timeout(400.0)  # long idle gap: drift accrues
                start = sim.now
                yield driver.write(index * 8, bytes(512))
                total += sim.now - start
            return total / 10

        return sim.run_until(sim.process(workload()))

    stale = run(interval_ms=0.0)
    fresh = run(interval_ms=100.0)
    print(f"  drifting spindle ({drift_rate} rev/s), writes after "
          "400 ms idle gaps:")
    print(f"    without idle repositioning: {stale:6.2f} ms per write "
          "(stale reference, full-rotation misses)")
    print(f"    with 100 ms repositioning : {fresh:6.2f} ms per write "
          "(reference re-anchored while idle)")
    print(f"    improvement               : {stale / fresh:.1f}x")


def main() -> None:
    calibration_demo()
    drift_demo()


if __name__ == "__main__":
    main()
