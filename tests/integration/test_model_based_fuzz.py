"""Model-based fuzzing: the driver vs the durability oracle.

Random interleavings of writes, reads, flushes, and overwrites across
several data disks, executed against TrailDriver (and the striped
variant), are checked against ``repro.faults.oracle``: every read must
return exactly what the model says — through any combination of
staging-buffer hits, partial overlays, and data-disk reads.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver, reserved_layout
from repro.errors import MediaError, TrailError
from repro.faults import FaultPlan
from repro.faults.oracle import DurabilityOracle
from repro.sim import Simulation
from tests.conftest import (
    cold_restart, crash_at, make_striped, make_tiny_drive, make_tiny_trail)

SECTOR = 512
SPAN = 1500  # LBAs the fuzz touches per disk


PAGE_SECTORS = 4  # uniform aligned pages, per the BlockDevice contract


def run_fuzz(driver, sim, seed, operations):
    rng = random.Random(seed)
    disk_ids = sorted(driver.data_disks)
    oracle = DurabilityOracle()

    def body():
        for op_index in range(operations):
            action = rng.random()
            disk_id = rng.choice(disk_ids)
            if action < 0.55:  # write one aligned page (cache style)
                page = rng.randrange(0, SPAN // PAGE_SECTORS)
                lba = page * PAGE_SECTORS
                fill = (op_index % 255) + 1
                payload = bytes([fill]) * (PAGE_SECTORS * SECTOR)
                oracle.issue(lba, payload, disk_id)
                yield driver.write(lba, payload, disk_id=disk_id)
                oracle.ack(lba, payload, disk_id)
            elif action < 0.9:  # read 1-8 sectors and check
                lba = rng.randrange(0, SPAN)
                nsectors = rng.randint(1, 8)
                data = yield driver.read(lba, nsectors, disk_id=disk_id)
                for offset in range(nsectors):
                    expected = oracle.expected(disk_id, lba + offset)
                    actual = data[offset * SECTOR:(offset + 1) * SECTOR]
                    assert actual == expected, (
                        f"op {op_index}: disk {disk_id} LBA "
                        f"{lba + offset}: got {actual[:4]!r}, expected "
                        f"{expected[:4]!r}")
            elif action < 0.95:
                yield from driver.flush()
            else:
                yield sim.timeout(rng.uniform(0.1, 5.0))
        yield from driver.flush()

    sim.run_until(sim.process(body(), name="fuzz"))
    # Final audit: every modelled sector is on its data disk.
    audit = oracle.audit(
        lambda disk, lba: driver.data_disks[disk].store.read_sector(lba))
    assert audit.ok, audit


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_trail_matches_model(seed):
    sim, driver, _log, _data = make_tiny_trail(data_disks=2,
                                               log_cylinders=40)
    run_fuzz(driver, sim, seed, operations=120)


@pytest.mark.parametrize("seed", [3, 41])
def test_striped_trail_matches_model(seed):
    sim, driver, _logs, _data = make_striped(data_disks=2,
                                             log_cylinders=40)
    run_fuzz(driver, sim, seed, operations=100)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_trail_matches_model_property(seed):
    sim, driver, _log, _data = make_tiny_trail(log_cylinders=40)
    run_fuzz(driver, sim, seed, operations=60)


# ----------------------------------------------------------------------
# Crash + media-fault fuzzing
#
# Each schedule derives two random FaultPlans (log + data), runs a
# random write workload under them, crashes at a random time, then
# remounts over the surviving platters with the same plans attached.
# The invariant is the durability contract from docs/FAULTS.md, as the
# oracle audits it: every acknowledged write is either readable
# afterwards or *reported* — listed in RecoveryReport.dropped_sectors,
# covered by a chain-break flag, or lost to a mount that failed
# loudly — and no sector holds data nobody wrote.  Silence is the only
# failure.


def _random_fault_plans(rng, log_drive):
    """Two mild-but-nasty plans derived deterministically from ``rng``."""
    _header_lbas, usable = reserved_layout(log_drive.geometry)
    geometry = log_drive.geometry
    log_candidates = [
        geometry.track_first_lba(track) + offset
        for track in usable
        for offset in range(geometry.track_sectors(track))]
    log_bad = {rng.choice(log_candidates)
               for _ in range(rng.randint(0, 3))}
    log_plan = FaultPlan(
        seed=rng.randrange(1 << 16),
        latent_bad_sectors=log_bad,
        transient_read_error_prob=rng.choice([0.0, 0.02, 0.05]),
        transient_write_error_prob=rng.choice([0.0, 0.02]),
        corruption_prob=rng.choice([0.0, 0.0, 0.01, 0.03]),
        latency_spike_prob=rng.choice([0.0, 0.05]),
        latency_spike_ms=8.0,
        retry_limit=4,
        spare_sectors=rng.choice([0, 8]))
    # No silent corruption on the data disk: Trail keeps no checksums
    # there, so injected bit rot would be undetectable by design.
    data_plan = FaultPlan(
        seed=rng.randrange(1 << 16),
        latent_bad_sectors={rng.randrange(0, SPAN)
                            for _ in range(rng.randint(0, 3))},
        transient_read_error_prob=rng.choice([0.0, 0.02, 0.05]),
        transient_write_error_prob=rng.choice([0.0, 0.02, 0.05]),
        latency_spike_prob=rng.choice([0.0, 0.05]),
        latency_spike_ms=8.0,
        retry_limit=4,
        spare_sectors=rng.choice([0, 4]))
    return log_plan, data_plan


def run_crash_fault_schedule(seed):
    """One seeded schedule; returns a comparable outcome summary."""
    rng = random.Random(seed)
    config = TrailConfig(idle_reposition_interval_ms=0)
    sim = Simulation()
    log = make_tiny_drive(sim, "log", cylinders=40)
    data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                           sectors_per_track=32)
    log_plan, data_plan = _random_fault_plans(rng, log)
    TrailDriver.format_disk(log)
    log.attach_faults(log_plan)
    data.attach_faults(data_plan)
    driver = TrailDriver(sim, log, {0: data}, config)

    oracle = DurabilityOracle()
    crash_ms = rng.uniform(30.0, 400.0)
    writes = rng.randint(10, 60)

    def workload():
        try:
            yield sim.process(driver.mount())
            for index in range(writes):
                lba = rng.randrange(0, SPAN)
                payload = bytes([(seed + index) % 255 + 1]) * SECTOR
                oracle.issue(lba, payload)
                try:
                    yield driver.write(lba, payload)
                except (MediaError, TrailError):
                    oracle.fail(lba, payload)
                    continue  # failed loudly: not acknowledged
                oracle.ack(lba, payload)
                if rng.random() < 0.3:
                    yield sim.timeout(rng.uniform(0.1, 4.0))
        except Exception:
            return  # power failure / dead drive: workload over

    crash_at(sim, driver, sim.process(workload()), crash_ms)

    # Remount a fresh stack over the surviving platters with the same
    # fault plans (fresh injectors: same seed, same behaviour).
    try:
        restart = cold_restart(log, {0: data})
    except Exception as exc:
        # A loud mount failure (shredded header, dead log disk) is a
        # reported outcome: nothing was claimed durable-and-fine.
        return ("mount-failed", type(exc).__name__, oracle.acked_writes)
    report = restart.report
    audit = restart.audit(oracle)
    assert audit.ok, (
        f"seed {seed}: sectors lost {audit.lost} / invented "
        f"{audit.invented} without a report ({report})")
    return ("mounted", oracle.acked_writes, audit.verified, audit.excused,
            None if report is None else (report.dropped_sectors,
                                         report.chain_broken,
                                         report.records_found))


class TestCrashFaultFuzz:
    # 228 and 394 once lost an acked write silently: a header bit flip
    # made the log scan skip the youngest record as if it were empty.
    @pytest.mark.parametrize("seed", list(range(20)) + [228, 394])
    def test_no_silent_loss_under_random_faults(self, seed):
        run_crash_fault_schedule(seed)

    def test_sweep_of_schedules_reports_every_loss(self):
        for seed in range(20, 600):
            run_crash_fault_schedule(seed)

    def test_same_seed_same_outcome(self):
        assert (run_crash_fault_schedule(1234)
                == run_crash_fault_schedule(1234))
