"""Section 2 comparison: Trail vs an LFS-style driver vs in-place.

The paper argues (without measuring) that:
  * "Trail also has a better synchronous write performance than LFS
    because it eliminates rotational latency" — LFS appends avoid most
    seeking but the log tail's angular position is uncontrolled.
  * "Trail incurs less disk access overhead due to garbage collection
    because pending write requests are written to data disks from main
    memory rather than from the log disk.  In contrast, LFS needs a
    disk read and a disk write to clean a disk segment."

This benchmark measures both claims on the same drive models.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    build_lfs_system, build_standard_system, build_trail_system)
from repro.core.config import TrailConfig
from repro.disk.presets import tiny_test_disk
from repro.units import KiB
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)


def _build(kind):
    if kind == "trail":
        return build_trail_system()
    if kind == "lfs":
        return build_lfs_system()
    if kind == "dcd":
        from repro.baselines.dcd import DcdDriver
        from repro.disk.presets import st41601n, wd_caviar_10gb
        from repro.sim import Simulation
        from repro.core.instance import BaselineInstance
        sim = Simulation()
        cache = st41601n().make_drive(sim, "dcd-cache")
        data = {0: wd_caviar_10gb().make_drive(sim, "data0")}
        driver = DcdDriver(sim, cache, data, nvram_bytes=KiB(512))
        return BaselineInstance(sim=sim, driver=driver, data_drives=data)
    return build_standard_system()


@pytest.fixture(scope="module")
def latency_comparison():
    workload = SyncWriteWorkload(requests_per_process=120,
                                 write_bytes=KiB(1),
                                 mode=ArrivalMode.SPARSE, seed=8)
    out = {}
    for kind in ("trail", "lfs", "dcd", "standard"):
        system = _build(kind)
        out[kind] = run_sync_write_workload(system.sim, system.driver,
                                            workload)
    return out


def test_latency_report(latency_comparison, paper_numbers):
    means = {kind: result.mean_latency_ms
             for kind, result in latency_comparison.items()}
    assert means["trail"] < means["lfs"] < means["standard"]
    # §2 on DCD: with battery-backed RAM it beats everything on raw
    # latency; Trail's point is getting close without the hardware.
    assert means["dcd"] < means["trail"]
    paper_numbers.check(
        "lfs_latency",
        ["driver", "mean 1KB sync write (ms)", "vs in-place (x)"],
        [[kind, mean, means["standard"] / mean]
         for kind, mean in means.items()],
        title="Sec. 2: synchronous write latency across layouts")


def test_lfs_pays_rotational_latency(latency_comparison):
    """LFS latency sits roughly an average rotational latency above
    Trail's (5.5 ms on these 5400 RPM drives)."""
    gap = (latency_comparison["lfs"].mean_latency_ms
           - latency_comparison["trail"].mean_latency_ms)
    assert 1.5 < gap < 9.0, gap


def test_cleaning_overhead_trail_free_lfs_not(paper_numbers):
    """Overwrite a small hot set until the LFS disk must clean; Trail's
    FIFO track reuse needs no disk reads at all."""
    # Small disks so the hot-set overwrites create real space
    # pressure: the LFS log (1,280 sectors, 5 segments) and the
    # Trail log ring (~76 tracks) both wrap many times.
    hot_set = 64  # logical 1 KB blocks, rewritten many times
    rounds = 2500
    rng = random.Random(5)

    lfs_system = build_lfs_system(
        data_spec=tiny_test_disk(cylinders=40, heads=2,
                                 sectors_per_track=16),
        segment_sectors=256)
    lfs = lfs_system.driver

    def lfs_load():
        for _ in range(rounds):
            block = rng.randrange(hot_set)
            yield lfs.write(block * 2, bytes(KiB(1)))

    lfs_system.sim.run_until(
        lfs_system.sim.process(lfs_load()))

    trail_system = build_trail_system(
        config=TrailConfig(idle_reposition_interval_ms=0),
        log_spec=tiny_test_disk(cylinders=40, heads=2,
                                sectors_per_track=16),
        data_spec=tiny_test_disk(cylinders=120, heads=4,
                                 sectors_per_track=32))
    trail = trail_system.driver
    rng2 = random.Random(5)

    def trail_load():
        for _ in range(rounds):
            block = rng2.randrange(hot_set)
            yield trail.write(block * 2, bytes(KiB(1)))

    trail_system.sim.run_until(
        trail_system.sim.process(trail_load()))

    # LFS had to clean; Trail never reads its log disk in normal
    # operation (write-backs come from host memory).
    assert lfs.stats.segments_cleaned > 0
    assert trail.stats.physical_log_writes > 0
    # Trail's only log-disk reads: the mount-time header (2 sectors),
    # one anchor read, and the 1-sector reposition reads.
    assert trail.log_drive.stats.sectors_read \
        <= trail.stats.repositions + 3
    paper_numbers.check(
        "lfs_cleaning",
        ["driver", "live sectors copied", "segments cleaned",
         "mean write (ms)"],
        [["lfs", lfs.stats.live_sectors_copied,
          lfs.stats.segments_cleaned, lfs.stats.sync_writes.mean],
         ["trail", 0, 0, trail.stats.sync_writes.mean]],
        title="Sec. 2: garbage-collection overhead under hot-set "
              "overwrites")
