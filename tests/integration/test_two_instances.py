"""The runtime twin of TIS001/TIS004: Trail instances, one process.

``tools/lint.py`` statically forbids cross-instance state (module
mutables and ambient singletons, TIS001 and TIS004).  This suite is the
dynamic half of that contract: it runs two independently seeded
:class:`~repro.core.instance.TrailInstance` stacks *interleaved* —
round-robin, one dispatched event per turn, in a single process — and
asserts each instance produces the byte-identical disk image and
event-order trace it produces when run alone.  Any module-level leak
between the stacks (a shared cache, a shared counter, a shared RNG)
shifts a sequence number or a sector somewhere and breaks the digest.
Four seed pairs and a three-way interleave run in every tier-1 run.
"""

from random import Random

import pytest

from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance, run_interleaved
from repro.disk.presets import tiny_test_disk
from repro.raid.array import Raid5Array
from repro.sim import Simulation
from repro.tpcc import TpccRunConfig, run_tpcc

SEED_PAIRS = [(3, 11), (3, 3), (5, 17), (29, 31)]

WRITES = 40


def make_instance():
    """A tiny traced Trail instance (trace enabled before any event)."""
    sim = Simulation()
    sim.enable_trace()
    spec = tiny_test_disk(cylinders=40)
    log_drive = spec.make_drive(sim, "trail-log")
    data_drives = {0: spec.make_drive(sim, "data0")}
    return TrailInstance(sim, log_drive, data_drives,
                         TrailConfig(idle_reposition_interval_ms=0))


def workload(instance, seed):
    """Seeded single-page writes, then a clean shutdown."""
    rng = Random(seed)
    driver = instance.driver
    sector_size = driver.sector_size
    span = instance.data_drives[0].geometry.total_sectors
    for index in range(WRITES):
        lba = rng.randrange(0, span - 4)
        yield driver.write(lba, bytes([(seed + index) % 251]) * sector_size)
        yield instance.sim.timeout(1.0)
    yield from driver.clean_shutdown()


def run_solo(seed):
    """One instance, alone in the simulation: the reference digests."""
    instance = make_instance()
    done = instance.sim.process(workload(instance, seed))
    instance.sim.run_until(done)
    return instance.fingerprint(), instance.trace_digest()


def run_interleaved_pair(seeds):
    """The same workloads, round-robin interleaved in one process."""
    instances = [make_instance() for _ in seeds]
    targets = [
        (instance, instance.sim.process(workload(instance, seed)))
        for instance, seed in zip(instances, seeds)
    ]
    run_interleaved(targets)
    return [(instance.fingerprint(), instance.trace_digest())
            for instance in instances]


@pytest.mark.parametrize("seeds", SEED_PAIRS)
def test_interleaved_matches_solo(seeds):
    """Interleaving must not perturb either instance's image or trace."""
    solo = [run_solo(seed) for seed in seeds]
    interleaved = run_interleaved_pair(seeds)
    for index, seed in enumerate(seeds):
        solo_image, solo_trace = solo[index]
        pair_image, pair_trace = interleaved[index]
        assert pair_image == solo_image, f"disk image diverged (seed {seed})"
        assert pair_trace == solo_trace, f"event trace diverged (seed {seed})"


def test_same_seed_pair_is_identical():
    """Two instances fed the same seed are indistinguishable twins."""
    (image_a, trace_a), (image_b, trace_b) = run_interleaved_pair((7, 7))
    assert image_a == image_b
    assert trace_a == trace_b


def test_three_way_interleave_matches_solo():
    seeds = (3, 11, 23)
    solo = [run_solo(seed) for seed in seeds]
    assert run_interleaved_pair(seeds) == solo


def test_sequential_tpcc_repeat_is_identical():
    """Back-to-back seeded runs in one process must not see each other.

    This is the classic leak detector: any state that survives the
    first ``run_tpcc`` (a module-level cache, a warm RNG, a reused
    registry) skews the second run's trace or totals.
    """
    config = TpccRunConfig(system="trail", transactions=25,
                           concurrency=2, seed=13)
    first = run_tpcc(config)
    second = run_tpcc(config)
    assert first == second


def test_fingerprint_covers_every_raid_member():
    """A RAID-backed instance digests each member drive's sectors."""
    sim = Simulation()
    spec = tiny_test_disk(cylinders=40, heads=2, sectors_per_track=16)
    members = [spec.make_drive(sim, f"member{i}") for i in range(3)]
    instance = TrailInstance(
        sim, tiny_test_disk(cylinders=40).make_drive(sim, "trail-log"),
        {0: Raid5Array(sim, members)},
        TrailConfig(idle_reposition_interval_ms=0))
    before = instance.fingerprint()
    members[2].store.write(5, bytes([7]) * 512)
    assert instance.fingerprint() != before
