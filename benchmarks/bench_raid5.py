"""Future work (paper's conclusion): track-based logging vs the RAID-5
small-write problem.

A RAID-5 small write costs four member I/Os in two serial rounds
(read old data + read old parity, then write data + write parity).
Fronting the array with Trail converts the synchronous cost into one
log-disk write (~1.5-2 ms) and performs the parity update in the
background — the application-visible small-write penalty disappears.
"""

from __future__ import annotations

import random
from math import fsum

import pytest

from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.disk.presets import st41601n, wd_caviar_10gb
from repro.raid import Raid5Array
from repro.sim import Simulation
from repro.units import KiB

REQUESTS = 80


def build_array(sim, members=5):
    drives = [wd_caviar_10gb().make_drive(sim, f"member{i}")
              for i in range(members)]
    return Raid5Array(sim, drives, stripe_unit_sectors=8)


def run_raw_raid() -> tuple:
    sim = Simulation()
    array = build_array(sim)
    rng = random.Random(21)
    latencies = []

    def body():
        for _ in range(REQUESTS):
            lba = rng.randrange(0, array.total_sectors - 8)
            start = sim.now
            yield array.write(lba, bytes(KiB(4)))
            latencies.append(sim.now - start)
            yield sim.timeout(5.0)

    sim.run_until(sim.process(body()))
    return (fsum(latencies) / len(latencies),
            array.stats.member_ios / REQUESTS)


def run_trail_raid() -> tuple:
    sim = Simulation()
    array = build_array(sim)
    instance = TrailInstance(
        sim, st41601n().make_drive(sim, "trail-log"), {0: array},
        TrailConfig())
    trail = instance.driver
    rng = random.Random(21)
    latencies = []

    def body():
        for _ in range(REQUESTS):
            lba = rng.randrange(0, array.total_sectors - 8)
            start = sim.now
            yield trail.write(lba, bytes(KiB(4)))
            latencies.append(sim.now - start)
            yield sim.timeout(5.0)
        yield from trail.flush()

    sim.run_until(sim.process(body()))
    return fsum(latencies) / len(latencies), array


@pytest.fixture(scope="module")
def results():
    raw_latency, raw_ios = run_raw_raid()
    trail_latency, array = run_trail_raid()
    return raw_latency, raw_ios, trail_latency, array


def test_raid5_report(results, paper_numbers):
    raw_latency, raw_ios, trail_latency, _array = results
    assert trail_latency < raw_latency / 3
    paper_numbers.check(
        "raid5",
        ["configuration", "mean 4KB sync write (ms)",
         "member I/Os per write"],
        [["RAID-5 (5 disks)", raw_latency, raw_ios],
         ["Trail + RAID-5", trail_latency, "deferred (background)"]],
        title="Future work: the RAID-5 small-write problem with and "
              "without track-based logging")


def test_small_write_costs_four_ios(results):
    _raw_latency, raw_ios, _trail_latency, _array = results
    assert raw_ios >= 4.0


def test_parity_still_maintained_behind_trail(results):
    """Deferred parity updates still leave every stripe consistent."""
    _raw, _ios, _trail_latency, array = results
    sim = array.sim
    # XOR of all members over the first stripes must be zero wherever
    # data was written.
    for stripe in range(0, 40):
        base = stripe * array.stripe_unit
        acc = bytearray(array.stripe_unit * array.sector_size)
        for drive in array.drives:
            data = drive.store.read(base, array.stripe_unit)
            for index, byte in enumerate(data):
                acc[index] ^= byte
        assert bytes(acc) == bytes(len(acc)), f"stripe {stripe}"
