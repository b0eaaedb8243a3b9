"""Drive-level fault fuzzing: whole-drive kills against the array.

ISSUE 7 satellite, the drive-death sibling of the crash+media fuzzer
in ``test_model_based_fuzz.py``.  Each seeded schedule runs a random
page workload against a RAID-5 array while a member drive dies at a
random time (and, in some schedules, the hot spare dies mid-rebuild
too — the kill-during-rebuild storm).  The invariants:

* foreground I/O never raises — a single member death plus any number
  of spare deaths is a performance event, not an error;
* after the storm settles, every acknowledged sector reads back
  byte-identical to the durability oracle's model, and no sector
  holds data nobody wrote;
* a completed rebuild leaves parity consistent;
* the same seed reproduces the identical outcome summary.
"""

import random

import pytest

from repro.faults import FaultPlan, start_drive_faults
from repro.faults.oracle import DurabilityOracle
from repro.raid import Raid5Array, RebuildConfig
from repro.raid.array import _xor
from repro.sim import Simulation
from tests.conftest import drive_to_completion, make_tiny_drive

SECTOR = 512
PAGE = 4  # uniform aligned pages, per the BlockDevice contract


def _parity_clean(array):
    unit = array.stripe_unit
    zero = bytes(unit * array.sector_size)
    return all(
        _xor([drive.store.read(stripe * unit, unit)
              for drive in array.drives]) == zero
        for stripe in range(array.stripes_total))


def run_drive_kill_schedule(seed):
    """One seeded storm; returns a comparable outcome summary."""
    rng = random.Random(seed)
    members = rng.choice([3, 4, 5])
    stripe_unit = rng.choice([2, 4])
    spares = rng.choice([1, 1, 2])
    victim = rng.randrange(members)
    kill_at = rng.uniform(5.0, 60.0)
    kill_spare_too = rng.random() < 0.4 and spares >= 1
    operations = rng.randint(20, 45)

    sim = Simulation()
    drives = [make_tiny_drive(sim, f"m{i}", cylinders=6, heads=2,
                              sectors_per_track=16)
              for i in range(members)]
    spare_drives = [make_tiny_drive(sim, f"spare{i}", cylinders=6,
                                    heads=2, sectors_per_track=16)
                    for i in range(spares)]
    array = Raid5Array(
        sim, drives, stripe_unit_sectors=stripe_unit,
        spares=spare_drives,
        rebuild_config=RebuildConfig(
            stripes_per_burst=rng.choice([2, 4, 8]),
            pause_ms=rng.choice([0.0, 1.0, 3.0])))

    start_drive_faults(sim, drives[victim],
                       FaultPlan(seed=seed, death_at_ms=kill_at))
    if kill_spare_too:
        # Kill-during-rebuild: the first spare dies while (or before)
        # the copier is writing to it.  With a second spare the rebuild
        # restarts; with one the array just stays degraded.
        start_drive_faults(
            sim, spare_drives[0],
            FaultPlan(seed=seed + 1,
                      death_at_ms=kill_at + rng.uniform(2.0, 25.0)))

    oracle = DurabilityOracle()
    written = []  # page LBAs, for mid-storm reads
    pages = array.total_sectors // PAGE

    def workload():
        for op_index in range(operations):
            action = rng.random()
            if action < 0.6:
                lba = rng.randrange(pages) * PAGE
                fill = (seed + op_index) % 255 + 1
                data = bytes([fill]) * (PAGE * SECTOR)
                oracle.issue(lba, data)
                yield array.write(lba, data)
                oracle.ack(lba, data)
                written.append(lba)
            elif action < 0.9 and written:
                lba = rng.choice(written)
                result = yield array.read(lba, 1)
                assert bytes(result.data[:SECTOR]) \
                    == oracle.expected(0, lba), (
                    f"seed {seed} op {op_index}: LBA {lba} diverged "
                    f"mid-storm")
            else:
                yield sim.timeout(rng.uniform(0.5, 6.0))
        # Force detection even if the workload never grazed the dead
        # member: one full parity rotation touches every drive.
        span = min(stripe_unit * (members - 1) * members,
                   array.total_sectors)
        yield array.read(0, span)
    drive_to_completion(sim, workload(), name=f"storm-{seed}")

    engine = array.rebuild
    if engine is not None and engine.active:
        sim.run_until(engine.done)
    # A spare-death abort with a second spare queued restarts the
    # rebuild; chase the chain until it settles.
    while array.rebuild is not engine and array.rebuild is not None:
        engine = array.rebuild
        if engine.active:
            sim.run_until(engine.done)

    audit = oracle.audit(
        lambda _disk, lba: bytes(sim.run_until(array.read(lba, 1))
                                 .data[:SECTOR]))
    assert audit.ok, f"seed {seed}: {audit} after the storm"

    status = "no-rebuild" if engine is None else engine.status
    if status == "complete":
        assert array.failed_drive is None
        assert _parity_clean(array), f"seed {seed}: dirty parity"
    stats = array.stats
    return (status,
            None if engine is None else engine.stripes_rebuilt,
            array.failed_drive, array.array_failed,
            stats.degraded_reads, stats.degraded_writes,
            stats.gate_waits, stats.member_ios, stats.op_retries,
            oracle.acked_writes, audit.verified)


class TestDriveKillFuzz:
    @pytest.mark.parametrize("seed", list(range(100, 122)))
    def test_storm_never_loses_acked_bytes(self, seed):
        run_drive_kill_schedule(seed)

    def test_same_seed_same_outcome(self):
        assert (run_drive_kill_schedule(777)
                == run_drive_kill_schedule(777))
