"""§5.1's closing optimization: multiple log disks.

"As a final optimization, it is possible to employ multiple log disks
to completely hide the disk re-positioning overhead from user
applications."  The paper does not evaluate this; here we do.  With
one log disk, clustered (back-to-back) writes periodically wait for
the explicit track-switch; striping over two or four log disks lets
another stripe absorb the next write while one repositions, pulling
clustered latency toward the sparse-mode floor.
"""

from __future__ import annotations

import random
from math import fsum
from typing import Dict

import pytest

from repro.core.config import TrailConfig
from repro.core.multilog import StripedTrailDriver
from repro.disk.presets import st41601n, wd_caviar_10gb
from repro.sim import Simulation
from repro.units import KiB

STRIPE_COUNTS = [1, 2, 4]
REQUESTS = 150


def run_clustered(stripes: int) -> float:
    sim = Simulation()
    log_drives = [st41601n().make_drive(sim, f"log{i}")
                  for i in range(stripes)]
    data = {0: wd_caviar_10gb().make_drive(sim, "data0")}
    StripedTrailDriver.format_disks(log_drives)
    driver = StripedTrailDriver(sim, log_drives, data, TrailConfig())
    sim.run_until(sim.process(driver.mount()))

    latencies = []

    def body():
        rng = random.Random(19)
        for _ in range(REQUESTS):
            lba = rng.randrange(0, 1_000_000)
            start = sim.now
            yield driver.write(lba, bytes(KiB(1)))
            latencies.append(sim.now - start)

    sim.run_until(sim.process(body()))
    return fsum(latencies) / len(latencies)


@pytest.fixture(scope="module")
def results() -> Dict[int, float]:
    return {stripes: run_clustered(stripes)
            for stripes in STRIPE_COUNTS}


def test_multilog_report(results, paper_numbers):
    assert results[2] < results[1]
    paper_numbers.check(
        "multilog",
        ["log disks", "mean clustered 1KB write (ms)",
         "vs 1 log disk (x)"],
        [[stripes, latency, results[1] / latency]
         for stripes, latency in sorted(results.items())],
        title="Sec. 5.1 final optimization: multiple log disks hide "
              "repositioning from clustered writes")


def test_more_stripes_never_slower(results):
    assert results[2] <= results[1] * 1.02
    assert results[4] <= results[2] * 1.05


def test_four_stripes_materially_faster(results):
    """The visible track-switch share of clustered latency shrinks;
    with page-affine routing, consecutive requests still co-locate on
    a stripe 1/N of the time, so the benefit scales with N."""
    assert results[4] < results[1] * 0.95
