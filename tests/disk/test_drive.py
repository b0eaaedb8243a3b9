"""Unit tests for the simulated disk drive's service timing and
power-failure semantics."""

import math

import pytest

from repro.disk import Op, PRIORITY_READ, PRIORITY_WRITE
from repro.errors import DiskHaltedError
from tests.conftest import drive_to_completion, make_tiny_drive

# tiny_test_disk: rpm 6000 -> 10 ms/rev; 16 SPT -> 0.625 ms/sector;
# overhead 0.2 ms; head switch 0.4 ms; t2t 0.5 ms.


def run_io(sim, drive, op, lba, nsectors, data=None, priority=0):
    def body():
        result = yield drive.submit(op, lba, nsectors, data=data,
                                    priority=priority)
        return result
    return drive_to_completion(sim, body())


class TestServiceTiming:
    def test_latency_decomposition_sums(self, sim):
        drive = make_tiny_drive(sim)
        result = run_io(sim, drive, Op.READ, 100, 4)
        assert math.isclose(
            result.service_ms,
            result.overhead_ms + result.seek_ms + result.rotation_ms
            + result.transfer_ms)
        assert result.queue_ms == 0.0

    def test_transfer_time_per_sector(self, sim):
        drive = make_tiny_drive(sim)
        result = run_io(sim, drive, Op.READ, 0, 8)
        assert math.isclose(result.transfer_ms, 8 * 0.625)

    def test_rotation_bounded_by_revolution(self, sim):
        drive = make_tiny_drive(sim)
        for lba in (3, 77, 200, 411):
            result = run_io(sim, drive, Op.READ, lba, 1)
            assert 0 <= result.rotation_ms < drive.rotation.rotation_ms

    def test_same_cylinder_no_seek(self, sim):
        drive = make_tiny_drive(sim)
        run_io(sim, drive, Op.READ, 0, 1)  # park on track 0
        result = run_io(sim, drive, Op.READ, 5, 1)  # same track
        assert result.seek_ms == 0.0

    def test_cross_track_pays_head_switch(self, sim):
        drive = make_tiny_drive(sim)
        run_io(sim, drive, Op.READ, 0, 1)  # track 0 (cyl 0, head 0)
        result = run_io(sim, drive, Op.READ, 16, 1)  # track 1 (head 1)
        assert math.isclose(result.seek_ms, 0.4)

    def test_cross_cylinder_pays_seek(self, sim):
        drive = make_tiny_drive(sim)
        run_io(sim, drive, Op.READ, 0, 1)
        far = drive.geometry.track_first_lba(drive.geometry.num_tracks - 2)
        result = run_io(sim, drive, Op.READ, far, 1)
        assert result.seek_ms >= 0.5

    def test_multi_track_transfer(self, sim):
        drive = make_tiny_drive(sim)
        # 20 sectors starting at sector 10 of track 0 spans into track 1.
        result = run_io(sim, drive, Op.WRITE, 10, 20, data=bytes(20 * 512))
        assert result.transfer_ms >= 20 * 0.625
        # Head ends on track 1.
        assert drive.position_track == 1

    def test_write_persists_data(self, sim):
        drive = make_tiny_drive(sim)
        payload = bytes(range(256)) * 4  # 2 sectors
        run_io(sim, drive, Op.WRITE, 40, 2, data=payload)
        assert drive.store.read(40, 2) == payload

    def test_read_returns_data(self, sim):
        drive = make_tiny_drive(sim)
        payload = b"R" * 1024
        run_io(sim, drive, Op.WRITE, 8, 2, data=payload)
        result = run_io(sim, drive, Op.READ, 8, 2)
        assert result.data == payload

    def test_write_requires_exact_data(self, sim):
        drive = make_tiny_drive(sim)
        with pytest.raises(ValueError):
            drive.submit(Op.WRITE, 0, 2, data=b"short")

    def test_targeting_sector_under_head_is_fast(self, sim):
        """The mechanism Trail exploits: zero rotational wait when the
        target is exactly where the platter will be."""
        drive = make_tiny_drive(sim)
        run_io(sim, drive, Op.READ, 0, 1)
        track = drive.position_track
        spt = drive.geometry.track_sectors(track)
        target = drive.rotation.sector_under_head(
            sim.now + drive.command_overhead_ms, spt)
        # One sector ahead of the head at media-ready time.
        lba = drive.geometry.track_first_lba(track) + (target + 1) % spt
        result = run_io(sim, drive, Op.WRITE, lba, 1, data=bytes(512))
        assert result.rotation_ms <= drive.rotation.sector_time(spt) + 1e-9

    def test_just_missed_sector_costs_full_rotation(self, sim):
        drive = make_tiny_drive(sim)
        run_io(sim, drive, Op.READ, 0, 1)
        track = drive.position_track
        spt = drive.geometry.track_sectors(track)
        # Target a sector slightly *behind* where the head will be.
        target = drive.rotation.sector_under_head(
            sim.now + drive.command_overhead_ms, spt)
        lba = drive.geometry.track_first_lba(track) + (target - 2) % spt
        result = run_io(sim, drive, Op.WRITE, lba, 1, data=bytes(512))
        assert result.rotation_ms > 0.6 * drive.rotation.rotation_ms


class TestQueueing:
    def test_fifo_service(self, sim):
        drive = make_tiny_drive(sim)
        order = []

        def issue(tag, lba):
            result = yield drive.read(lba, 1)
            order.append((tag, result.completed_at))

        sim.process(issue("a", 0))
        sim.process(issue("b", 100))
        sim.run()
        assert order[0][0] == "a"
        assert order[1][0] == "b"

    def test_queue_ms_recorded(self, sim):
        drive = make_tiny_drive(sim)
        results = {}

        def issue(tag, lba, priority=PRIORITY_READ):
            results[tag] = yield drive.read(lba, 1, priority=priority)

        sim.process(issue("first", 0))
        sim.process(issue("second", 200))
        sim.run()
        assert results["second"].queue_ms > 0

    def test_read_priority_overtakes_writes(self, sim):
        drive = make_tiny_drive(sim)
        completions = []

        def write(tag, lba):
            yield drive.write(lba, bytes(512), priority=PRIORITY_WRITE)
            completions.append(tag)

        def read(tag, lba):
            yield drive.read(lba, 1, priority=PRIORITY_READ)
            completions.append(tag)

        def scenario():
            # Occupy the drive, then queue writes, then a read.
            first = drive.read(0, 1)
            for index, tag in enumerate(("w1", "w2", "w3")):
                sim.process(write(tag, 300 + index * 20))
            yield sim.timeout(0.01)
            sim.process(read("r", 120))
            yield first

        drive_to_completion(sim, scenario())
        sim.run()
        assert completions.index("r") == 0

    def test_stats_accumulate(self, sim):
        drive = make_tiny_drive(sim)
        assert drive.stats.mean_rotation_ms == 0.0
        run_io(sim, drive, Op.WRITE, 0, 2, data=bytes(1024))
        run_io(sim, drive, Op.READ, 0, 2)
        assert drive.stats.writes == 1
        assert drive.stats.reads == 1
        assert drive.stats.sectors_written == 2
        assert drive.stats.sectors_read == 2
        assert drive.stats.commands == 2
        assert drive.stats.busy_ms > 0
        assert drive.stats.mean_rotation_ms == drive.stats.rotation_ms / 2


class TestPowerFailure:
    def test_halt_fails_in_flight_command(self, sim):
        drive = make_tiny_drive(sim)
        outcome = {}

        def writer():
            try:
                yield drive.write(0, bytes(16 * 512))
            except DiskHaltedError:
                outcome["halted"] = sim.now

        def killer():
            yield sim.timeout(1.0)
            drive.halt()

        sim.process(writer())
        sim.process(killer())
        sim.run()
        assert "halted" in outcome
        assert drive.halted

    def test_halt_mid_transfer_keeps_whole_sectors(self, sim):
        drive = make_tiny_drive(sim)
        payload = bytes([7]) * (16 * 512)

        def writer():
            try:
                yield drive.write(0, payload)
            except DiskHaltedError:
                pass

        def killer():
            # Transfer of track 0 starts after overhead+rotation; cut
            # power partway through the 10 ms full-track transfer.
            yield sim.timeout(drive.command_overhead_ms + 10.0 + 3.0)
            drive.halt()

        sim.process(writer())
        sim.process(killer())
        sim.run()
        written = sum(1 for lba in range(16) if drive.store.is_written(lba))
        assert 0 < written < 16
        for lba in range(written):
            assert drive.store.read_sector(lba) == bytes([7]) * 512

    def test_halt_fails_queued_commands(self, sim):
        drive = make_tiny_drive(sim)
        failures = []

        def writer(lba):
            try:
                yield drive.write(lba, bytes(512))
            except DiskHaltedError:
                failures.append(lba)

        for lba in (0, 100, 200):
            sim.process(writer(lba))

        def killer():
            yield sim.timeout(0.05)
            drive.halt()

        sim.process(killer())
        sim.run()
        assert len(failures) == 3

    def test_submit_after_halt_fails(self, sim):
        drive = make_tiny_drive(sim)
        drive.halt()
        outcome = {}

        def writer():
            try:
                yield drive.write(0, bytes(512))
            except DiskHaltedError:
                outcome["failed"] = True

        sim.process(writer())
        sim.run()
        assert outcome.get("failed")

    def test_power_on_resumes_service(self, sim):
        drive = make_tiny_drive(sim)
        drive.halt()
        drive.power_on()
        result = run_io(sim, drive, Op.WRITE, 0, 1, data=bytes(512))
        assert result.nsectors == 1
        assert drive.store.is_written(0)

    def test_double_halt_is_idempotent(self, sim):
        drive = make_tiny_drive(sim)
        drive.halt()
        drive.halt()
        assert drive.halted

    def test_halt_during_multi_segment_transfer(self, sim):
        """Power loss mid-way through a 3-track write persists a
        whole-sector prefix and nothing from untouched tracks."""
        drive = make_tiny_drive(sim)
        nsectors = 48  # 3 full tracks at 16 SPT
        payload = b"".join(bytes([index + 1]) * 512
                           for index in range(nsectors))

        def writer():
            try:
                yield drive.write(0, payload)
            except DiskHaltedError:
                pass

        def killer():
            # First segment completes within overhead + rotation + one
            # 10 ms revolution; cut power while a later one streams.
            yield sim.timeout(27.0)
            drive.halt()

        sim.process(writer())
        sim.process(killer())
        sim.run()
        written = sum(1 for lba in range(nsectors)
                      if drive.store.is_written(lba))
        assert 16 <= written < nsectors  # track 0 done, track 2 never
        # Persistence is a contiguous whole-sector prefix of the
        # command, byte-exact; everything after it is untouched.
        for lba in range(written):
            assert drive.store.read_sector(lba) == bytes([lba + 1]) * 512
        for lba in range(written, nsectors):
            assert not drive.store.is_written(lba)

    def test_halt_power_up_halt_cycles(self, sim):
        """Data written in earlier power sessions survives later ones."""
        drive = make_tiny_drive(sim)
        generations = {}

        def session(generation, lba):
            payload = bytes([generation]) * 512
            try:
                yield drive.write(lba, payload)
                generations[lba] = payload
            except DiskHaltedError:
                pass

        # Session 1: a write completes, then power drops mid-write.
        sim.process(session(1, 0))

        def first_killer():
            yield sim.timeout(30.0)
            drive.halt()

        sim.process(first_killer())
        sim.run()
        assert drive.halted

        # Session 2: power restored; service resumes and new writes
        # coexist with session 1's surviving data.
        drive.power_on()
        assert not drive.halted
        sim.process(session(2, 100))
        sim.run()

        # Session 3: halt again (idempotent across cycles), then a
        # final power-up must still serve reads of every survivor.
        drive.halt()
        drive.power_on()
        sim.process(session(3, 200))
        sim.run()

        assert set(generations) == {0, 100, 200}
        for lba, payload in generations.items():
            assert drive.store.read_sector(lba) == payload

    def test_commands_in_flight_across_power_cycle_fail_cleanly(self, sim):
        """A command interrupted by halt stays failed after power-up;
        only commands submitted after power_on are serviced."""
        drive = make_tiny_drive(sim)
        outcomes = {}

        def doomed():
            try:
                yield drive.write(0, bytes(16 * 512))
                outcomes["doomed"] = "completed"
            except DiskHaltedError:
                outcomes["doomed"] = "failed"

        def cycle():
            yield sim.timeout(1.0)
            drive.halt()
            yield sim.timeout(5.0)
            drive.power_on()
            result = yield drive.read(0, 1)
            outcomes["after"] = result.nsectors

        sim.process(doomed())
        sim.process(cycle())
        sim.run()
        assert outcomes["doomed"] == "failed"
        assert outcomes["after"] == 1
        assert drive.stats.halted_commands >= 1
