"""Online rebuild engine: reconstruction, checkpoints, fault storms."""

import random

import pytest

from repro.errors import (
    DriveFailedError, RaidFailedError, UnrecoverableSectorError)
from repro.faults import FaultPlan
from repro.faults.oracle import DurabilityOracle
from repro.raid import Raid5Array, RebuildConfig
from repro.raid.array import _xor
from repro.sim import Simulation
from tests.conftest import drive_to_completion, make_tiny_drive

SECTOR = 512
PAGE = 4  # sectors per workload write


def make_array(sim, members=4, stripe_unit=4, spares=1, cylinders=10,
               config=None, **kwargs):
    drives = [make_tiny_drive(sim, f"m{i}", cylinders=cylinders,
                              heads=2, sectors_per_track=16)
              for i in range(members)]
    spare_drives = [make_tiny_drive(sim, f"spare{i}", cylinders=cylinders,
                                    heads=2, sectors_per_track=16)
                    for i in range(spares)]
    array = Raid5Array(sim, drives, stripe_unit_sectors=stripe_unit,
                       spares=spare_drives, rebuild_config=config,
                       **kwargs)
    return array, drives, spare_drives


def fill_array(sim, array, seed=0, pages=None):
    """Seeded page writes over the whole span; returns the oracle."""
    rng = random.Random(seed)
    oracle = DurabilityOracle()
    span = array.total_sectors // PAGE
    chosen = range(span) if pages is None else pages

    def body():
        for page in chosen:
            lba = page * PAGE
            data = bytes([rng.randrange(256)]) * (PAGE * SECTOR)
            oracle.issue(lba, data)
            yield array.write(lba, data)
            oracle.ack(lba, data)
    drive_to_completion(sim, body())
    return oracle


def force_detection(sim, array, stripe=0):
    """Issue a stripe-spanning read so a dead member is discovered."""
    span = array.stripe_unit * (len(array.drives) - 1)

    def body():
        yield array.read(stripe * span, min(span, array.total_sectors))
    drive_to_completion(sim, body())


def wait_rebuild(sim, array):
    engine = array.rebuild
    assert engine is not None, "rebuild never started"
    if engine.active:
        sim.run_until(engine.done)
    return engine


def read_all(sim, array, oracle):
    """The oracle's audit of every written sector, read via the array."""
    return oracle.audit(
        lambda _disk, lba: bytes(sim.run_until(array.read(lba, 1))
                                 .data[:SECTOR]))


def parity_clean(array):
    unit = array.stripe_unit
    zero = bytes(unit * array.sector_size)
    for stripe in range(array.stripes_total):
        lba = stripe * unit
        chunks = [drive.store.read(lba, unit) for drive in array.drives]
        if _xor(chunks) != zero:
            return False
    return True


class TestOnlineRebuild:
    def test_relocate_reaches_the_member_drive(self, sim):
        array, drives, _spares = make_array(sim)
        plan = FaultPlan(latent_bad_sectors={1}, spare_sectors=4)
        drives[0].attach_faults(plan)
        assert array.relocate(0, 2) == 1  # array LBA 1 is m0's sector 1
        assert drives[0].stats.sectors_remapped == 1


    def test_rebuild_reconstructs_byte_identical(self, sim):
        array, drives, spares = make_array(sim)
        oracle = fill_array(sim, array)
        drives[1].fail()
        force_detection(sim, array)
        engine = wait_rebuild(sim, array)
        assert engine.status == "complete"
        assert engine.stripes_rebuilt == array.stripes_total
        assert array.failed_drive is None
        assert array.drives[1] is spares[0]  # spare swapped in
        assert read_all(sim, array, oracle).ok
        assert parity_clean(array)
        assert engine.lost_sectors == []

    def test_rebuild_under_foreground_traffic(self, sim):
        array, drives, _spares = make_array(sim, cylinders=10)
        oracle = fill_array(sim, array)
        rng = random.Random(7)
        drives[2].fail()

        def traffic():
            # Mixed reads and overwrites while the copier runs.
            span = array.total_sectors // PAGE
            for _ in range(60):
                page = rng.randrange(span)
                lba = page * PAGE
                if rng.random() < 0.5:
                    result = yield array.read(lba, 1)
                    assert bytes(result.data[:SECTOR]) \
                        == oracle.expected(0, lba)
                else:
                    data = bytes([rng.randrange(256)]) * (PAGE * SECTOR)
                    oracle.issue(lba, data)
                    yield array.write(lba, data)
                    oracle.ack(lba, data)
                yield sim.timeout(rng.uniform(0.1, 2.0))
        drive_to_completion(sim, traffic())
        engine = wait_rebuild(sim, array)
        assert engine.status == "complete"
        assert read_all(sim, array, oracle).ok
        assert parity_clean(array)

    def test_checkpoint_watermark_stays_consistent(self, sim):
        array, drives, _spares = make_array(sim)
        fill_array(sim, array)
        drives[0].fail()
        force_detection(sim, array)
        engine = array.rebuild

        def observer():
            last = -1
            while engine.active:
                assert engine.next_stripe == engine.stripes_rebuilt
                assert engine.next_stripe >= last
                last = engine.next_stripe
                yield sim.timeout(0.5)
        process = sim.process(observer())
        wait_rebuild(sim, array)
        assert not process.is_alive or sim.run_until(process) is None

    def test_throttle_knob_slows_rebuild(self):
        def rebuild_time(pause_ms):
            sim = Simulation()
            array, drives, _spares = make_array(
                sim, config=RebuildConfig(stripes_per_burst=2,
                                          pause_ms=pause_ms))
            fill_array(sim, array)
            drives[1].fail()
            force_detection(sim, array)
            return wait_rebuild(sim, array).elapsed_ms
        assert rebuild_time(20.0) > rebuild_time(0.0)

    def test_writeback_defer_hint_only_while_running(self, sim):
        array, drives, _spares = make_array(
            sim, config=RebuildConfig(writeback_defer_ms=5.0))
        fill_array(sim, array)
        assert array.writeback_defer_ms == 0.0  # healthy: no hint
        drives[1].fail()
        force_detection(sim, array)
        assert array.rebuild.status == "running"
        assert array.writeback_defer_ms == 5.0
        wait_rebuild(sim, array)
        assert array.writeback_defer_ms == 0.0  # complete: hint gone


class TestHaltDuringRebuild:
    def test_halt_pauses_at_checkpoint_and_resumes(self, sim):
        array, drives, _spares = make_array(sim)
        oracle = fill_array(sim, array)
        drives[1].fail()
        force_detection(sim, array)
        engine = array.rebuild

        def run_then_halt():
            while engine.stripes_rebuilt < 3:
                yield sim.timeout(0.25)
            array.halt()
        drive_to_completion(sim, run_then_halt())
        assert engine.paused
        checkpoint = engine.next_stripe
        assert checkpoint == engine.stripes_rebuilt

        def idle():
            yield sim.timeout(200.0)
        drive_to_completion(sim, idle())
        assert engine.next_stripe == checkpoint  # no progress halted
        assert engine.progress == checkpoint / array.stripes_total

        array.power_on()
        assert engine.status == "running"
        wait_rebuild(sim, array)
        assert engine.status == "complete"
        assert engine.progress == 1.0
        assert read_all(sim, array, oracle).ok
        assert parity_clean(array)

    def test_halt_resume_is_idempotent_per_stripe(self, sim):
        # Re-copying the checkpoint stripe after resume must not
        # corrupt it: halt/power-cycle several times mid-rebuild.
        array, drives, _spares = make_array(sim)
        oracle = fill_array(sim, array)
        drives[2].fail()
        force_detection(sim, array)
        engine = array.rebuild

        def bouncer():
            for _ in range(3):
                yield sim.timeout(7.0)
                if not engine.active:
                    return
                array.halt()
                yield sim.timeout(5.0)
                array.power_on()
        drive_to_completion(sim, bouncer())
        wait_rebuild(sim, array)
        assert engine.status == "complete"
        assert read_all(sim, array, oracle).ok
        assert parity_clean(array)


class TestFaultStorms:
    def test_spare_death_aborts_rebuild_array_stays_degraded(self, sim):
        array, drives, spares = make_array(sim)
        oracle = fill_array(sim, array)
        drives[1].fail()
        force_detection(sim, array)
        engine = array.rebuild

        def kill_spare():
            while engine.stripes_rebuilt < 2:
                yield sim.timeout(0.25)
            spares[0].fail()
        drive_to_completion(sim, kill_spare())
        wait_rebuild(sim, array)
        assert engine.status == "aborted"
        assert "spare" in (engine.abort_reason or "")
        assert array.failed_drive == 1  # still degraded
        assert not array.array_failed
        assert read_all(sim, array, oracle).ok  # degraded service

    def test_second_survivor_death_fails_array_loudly(self, sim):
        array, drives, _spares = make_array(sim)
        fill_array(sim, array)
        drives[1].fail()
        force_detection(sim, array)

        def kill_second():
            yield sim.timeout(2.0)
            drives[3].fail()
            # The copier's survivor reads hit the dead drive promptly.
            yield sim.timeout(30.0)
        drive_to_completion(sim, kill_second())
        assert array.array_failed
        assert array.rebuild.status == "aborted"
        with pytest.raises(RaidFailedError):
            array.read(0, 1)

    def test_unreadable_survivor_sector_is_salvaged(self, sim):
        array, drives, _spares = make_array(sim)
        oracle = fill_array(sim, array)
        # One survivor sector becomes unrecoverable *after* the fill,
        # so the copier's reconstruct read trips on it.
        bad_lba = 0
        drives[2].attach_faults(FaultPlan(
            latent_bad_sectors=frozenset({bad_lba}), spare_sectors=0))
        drives[1].fail()
        # Detect via stripe 1: the stripe-0 read would itself trip on
        # the bad sector before the copier gets a chance to salvage.
        force_detection(sim, array, stripe=1)
        engine = wait_rebuild(sim, array)
        assert engine.status == "complete"
        assert ("m2", bad_lba) in engine.lost_sectors
        assert engine.salvage_reads > 0

        # The rest of the array is intact: only stripe 0 — the bad
        # sector itself (still unreadable on the live member) and the
        # reconstructed row that needed it — may misbehave.
        def read_sector(_disk, lba):
            try:
                return bytes(sim.run_until(array.read(lba, 1))
                             .data[:SECTOR])
            except UnrecoverableSectorError:
                return None
        audit = oracle.audit(read_sector)
        stripe0 = set(range(array.stripe_unit * (len(drives) - 1)))
        assert not audit.invented
        assert {lba for _disk, lba in audit.lost} <= stripe0

    def test_rebuild_restarts_on_next_spare_after_spare_death(self, sim):
        array, drives, spares = make_array(sim, spares=2)
        oracle = fill_array(sim, array)
        drives[1].fail()
        force_detection(sim, array)
        first = array.rebuild
        assert first.spare is spares[0]

        def kill_first_spare():
            while first.stripes_rebuilt < 2:
                yield sim.timeout(0.25)
            spares[0].fail()
        drive_to_completion(sim, kill_first_spare())
        sim.run_until(first.done)
        assert first.status == "aborted"
        second = wait_rebuild(sim, array)
        assert second is not first
        assert second.spare is spares[1]
        assert second.status == "complete"
        assert array.failed_drive is None
        assert read_all(sim, array, oracle).ok
        assert parity_clean(array)


class TestStripeGate:
    def test_foreground_writer_waits_for_copier(self, sim):
        array, drives, _spares = make_array(sim, spares=0)
        fill_array(sim, array)
        log = []

        def copier():
            yield from array.rebuild_lock_stripe(0)
            log.append(("locked", sim.now))
            yield sim.timeout(10.0)
            array.rebuild_unlock_stripe(0)
            log.append(("unlocked", sim.now))

        def writer():
            yield sim.timeout(1.0)  # lock is held by now
            yield array.write(0, b"x" * SECTOR)
            log.append(("wrote", sim.now))
        sim.process(copier())
        drive_to_completion(sim, writer())
        assert [name for name, _ in log] == ["locked", "unlocked", "wrote"]
        assert array.stats.gate_waits >= 1

    def test_copier_waits_for_foreground_writer(self, sim):
        array, drives, _spares = make_array(sim, spares=0)
        fill_array(sim, array)
        done_at = {}

        def writer():
            yield array.write(0, b"y" * SECTOR)
            done_at["write"] = sim.now

        def copier():
            yield sim.timeout(0.1)  # writer is mid-RMW by now
            yield from array.rebuild_lock_stripe(0)
            done_at["lock"] = sim.now
            array.rebuild_unlock_stripe(0)
        write_process = sim.process(writer())
        drive_to_completion(sim, copier())
        sim.run_until(write_process)
        # The copier parked at t=0.1 until the in-flight RMW drained:
        # it acquired only once the writer's member I/O had finished
        # (same timestamp as the write ack, well after the park).
        assert done_at["lock"] >= done_at["write"]
        assert done_at["lock"] > 1.0
