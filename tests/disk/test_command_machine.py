"""The drive's command queue and completion-callback state machine.

``DiskDrive`` services commands without a process per command: an idle
drive starts service inside ``submit()``, each per-track segment is one
timeout, and the last segment's callback starts the next waiting
command before succeeding the command's event.  These tests pin what
that machine owes its callers: the event count, exact persistence on
power loss, immunity to timeouts left behind by aborted commands, the
queue discipline, the latency decomposition, and — with a fault
injector attached — the same seeded outcomes as the process-based
service path it replaced.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.controller import (
    DriveStats, Op, PRIORITY_READ, PRIORITY_REBUILD, PRIORITY_WRITE)
from repro.disk.drive import DiskDrive
from repro.disk.mechanics import RotationModel
from repro.disk.presets import tiny_test_disk
from repro.errors import (
    DiskHaltedError, UnrecoverableSectorError)
from repro.faults import FaultPlan
from repro.sim import Simulation
from tests.conftest import make_tiny_drive

SECTOR = 512
SPT = 16  # sectors per track of the tiny drive


def make_drive(sim):
    spec = tiny_test_disk(cylinders=20, heads=2, sectors_per_track=SPT)
    return DiskDrive(
        sim=sim, geometry=spec.geometry(), seek=spec.seek_model(),
        rotation=RotationModel(spec.rpm),
        command_overhead_ms=spec.command_overhead_ms, name="disk")


def watch(event, log, tag):
    """Record how ``event`` ends; a recorded failure counts as handled."""
    def done(fired):
        if fired.exception is None:
            log.append((tag, "ok", fired.value))
        else:
            fired.defuse()
            log.append((tag, type(fired.exception).__name__, None))
    event.add_callback(done)
    return event


# ----------------------------------------------------------------------
# Straight-line reference: the arithmetic of one command, no events

def reference_segments(drive, position, start, lba, nsectors):
    """Walk one fault-free command phase by phase from ``start``.

    Returns ``(segments, seek, rotation, transfer, end, position)``
    where each segment is ``(first_lba, nsectors, transfer_start,
    sector_time)``.  Mirrors the documented service order: overhead
    once, then per track reposition -> rotational wait (evaluated at
    the instant the transfer is ready to start) -> transfer.
    """
    geometry = drive.geometry
    segments = []
    seek = rotation = transfer = 0.0
    now = start
    pre = drive.command_overhead_ms
    current, remaining = lba, nsectors
    while remaining:
        track, track_start, track_size = geometry.track_extent_of_lba(current)
        take = min(remaining, track_start + track_size - current)
        cylinder, head, spt, _start = geometry.track_info(track)
        sector_time = drive.rotation.sector_time(spt)
        move = drive.seek.reposition_time(
            position[0], position[1], cylinder, head)
        wait = drive.rotation.time_until_sector(
            now + pre + move, current - track_start, spt)
        segments.append((current, take, now + pre + move + wait,
                         sector_time))
        now = now + (pre + move + wait + take * sector_time)
        seek += move
        rotation += wait
        transfer += take * sector_time
        position = (cylinder, head)
        pre = 0.0
        current += take
        remaining -= take
    return segments, seek, rotation, transfer, now, position


# ----------------------------------------------------------------------
# (a) Two kernel events per command, none for waiting

class TestEventsPerCommand:
    def test_idle_drive_command_is_two_events(self, sim):
        drive = make_drive(sim)
        trace = sim.enable_trace()
        done = drive.write(3, bytes(SECTOR))
        sim.run()
        assert done.ok
        # The segment's timeout, then the completion event.
        assert len(trace) == 2

    def test_multi_track_command_adds_one_event_per_extra_track(self, sim):
        drive = make_drive(sim)
        trace = sim.enable_trace()
        done = drive.read(SPT - 2, 4)  # crosses one track boundary
        sim.run()
        assert done.value.nsectors == 4
        assert len(trace) == 3

    def test_queued_commands_add_no_events(self, sim):
        drive = make_drive(sim)
        trace = sim.enable_trace()
        events = [drive.write(lba, bytes(SECTOR))
                  for lba in (0, 200, 100, 300)]
        assert drive.queue_length == 3
        sim.run()
        assert all(event.ok for event in events)
        assert len(trace) == 2 * len(events)
        assert drive.queue_length == 0

    def test_submission_to_a_down_drive_is_one_failure_event(self, sim):
        drive = make_drive(sim)
        drive.halt()
        trace = sim.enable_trace()
        log = []
        watch(drive.read(0, 1), log, "r")
        sim.run()
        assert log == [("r", "DiskHaltedError", None)]
        assert len(trace) == 1


# ----------------------------------------------------------------------
# (b) Halt matrix: exactly the whole sectors transferred persist

def written_lbas(drive, lba, nsectors):
    return [address for address in range(lba, lba + nsectors)
            if drive.store.is_written(address)]


class TestHaltMatrix:
    #: (lba, nsectors): within one track, and across a track boundary.
    EXTENTS = [(0, SPT), (SPT - 5, 12)]

    def run_cut(self, lba, nsectors, cut_at, kill="halt"):
        """Write the extent, cut power/kill at ``cut_at``; what landed."""
        sim = Simulation()
        drive = make_drive(sim)
        payload = b"".join(bytes([index + 1]) * SECTOR
                           for index in range(nsectors))
        log = []
        watch(drive.write(lba, payload), log, "w")

        def killer():
            yield sim.timeout(cut_at)
            getattr(drive, kill)()

        sim.process(killer())
        sim.run()
        landed = written_lbas(drive, lba, nsectors)
        for address in landed:
            assert drive.store.read_sector(address) == \
                bytes([address - lba + 1]) * SECTOR
        return drive, log, landed

    @pytest.mark.parametrize("lba,nsectors", EXTENTS)
    def test_cut_before_the_transfer_persists_nothing(self, lba, nsectors):
        sim = Simulation()
        probe = make_drive(sim)
        segments, *_ = reference_segments(probe, (0, 0), 0.0, lba, nsectors)
        transfer_start = segments[0][2]
        for fraction in (0.1, 0.5, 0.99):
            drive, log, landed = self.run_cut(
                lba, nsectors, transfer_start * fraction)
            assert landed == []
            assert log == [("w", "DiskHaltedError", None)]
            assert drive.stats.halted_commands == 1
            assert drive.stats.writes == 0

    @pytest.mark.parametrize("lba,nsectors", EXTENTS)
    @pytest.mark.parametrize("kill,error,counter", [
        ("halt", "DiskHaltedError", "halted_commands"),
        ("fail", "DriveFailedError", "dead_commands")])
    def test_cut_after_k_sectors_persists_exactly_k(
            self, lba, nsectors, kill, error, counter):
        sim = Simulation()
        probe = make_drive(sim)
        segments, *_ = reference_segments(probe, (0, 0), 0.0, lba, nsectors)
        before = 0
        for first, count, transfer_start, sector_time in segments:
            for k in range(count):
                # Half a sector past the k-th whole sector.
                cut = transfer_start + (k + 0.5) * sector_time
                drive, log, landed = self.run_cut(lba, nsectors, cut, kill)
                assert landed == list(range(lba, lba + before + k)), \
                    (first, k)
                assert log == [("w", error, None)]
                assert getattr(drive.stats, counter) == 1
                assert drive.stats.writes == 0
            before += count
        assert before == nsectors

    @pytest.mark.parametrize("cut_scheduled_first", [True, False])
    def test_cut_at_the_instant_a_transfer_ends(self, cut_scheduled_first):
        """``halt()`` acts at the call, so a same-instant tie goes by
        scheduling order: a cut scheduled before the drive's wakeup
        aborts the command (every sector had landed, but it is not
        acknowledged); one scheduled after finds it complete."""
        sim = Simulation()
        drive = make_drive(sim)
        *_, end, _position = reference_segments(drive, (0, 0), 0.0, 0, 4)
        log = []
        if cut_scheduled_first:
            sim.timeout(end).add_callback(lambda _event: drive.halt())
        watch(drive.write(0, bytes([5]) * (4 * SECTOR)), log, "w")
        if not cut_scheduled_first:
            sim.timeout(end).add_callback(lambda _event: drive.halt())
        sim.run()
        assert sim.now == end and drive.halted
        assert written_lbas(drive, 0, 4) == [0, 1, 2, 3]
        if cut_scheduled_first:
            assert log == [("w", "DiskHaltedError", None)]
            assert (drive.stats.writes, drive.stats.halted_commands) == (0, 1)
        else:
            assert [entry[:2] for entry in log] == [("w", "ok")]
            assert (drive.stats.writes, drive.stats.halted_commands) == (1, 0)

    def test_drive_serves_again_after_a_cut_with_a_queue(self, sim):
        """The process-based drive could leak its queue slot here (a
        waiter granted by the aborting command never released it) and
        hang every later command."""
        drive = make_drive(sim)
        log = []
        for tag, lba in (("a", 0), ("b", 100), ("c", 200)):
            watch(drive.write(lba, bytes(SECTOR)), log, tag)

        def scenario():
            yield sim.timeout(0.05)
            drive.halt()
            yield sim.timeout(1.0)
            drive.power_on()
            first = drive.write(0, bytes([1]) * SECTOR)
            second = drive.read(0, 1)
            yield first
            result = yield second
            return result.data

        assert sim.run_until(sim.process(scenario())) == bytes([1]) * SECTOR
        assert len(log) == 3

    def test_queued_commands_fail_without_touching_the_platter(self, sim):
        drive = make_drive(sim)
        log = []
        for tag, lba in (("a", 0), ("b", 100), ("c", 200)):
            watch(drive.write(lba, bytes([9]) * SECTOR), log, tag)

        def killer():
            yield sim.timeout(0.05)  # "a" is still in its overhead
            drive.halt()

        sim.process(killer())
        sim.run()
        # The active command fails first, then the queue in order.
        assert log == [(tag, "DiskHaltedError", None) for tag in "abc"]
        assert drive.queue_length == 0
        assert not any(drive.store.is_written(lba) for lba in (0, 100, 200))

    def test_halted_commands_counts_every_power_loss_once(self, sim):
        """Queued, mid-transfer and submitted-while-off all count —
        symmetric with ``dead_commands``."""
        drive = make_drive(sim)
        log = []
        segments, *_ = reference_segments(drive, (0, 0), 0.0, 0, SPT)
        watch(drive.write(0, bytes(SPT * SECTOR)), log, "active")
        watch(drive.read(100, 1), log, "queued-1")
        watch(drive.read(200, 1), log, "queued-2")

        def scenario():
            yield sim.timeout(segments[0][2] + 2.5 * segments[0][3])
            drive.halt()
            watch(drive.read(0, 1), log, "while-off")
            yield sim.timeout(1.0)
            drive.power_on()
            result = yield drive.read(0, 2)
            return result

        result = sim.run_until(sim.process(scenario()))
        assert [entry[1] for entry in log] == ["DiskHaltedError"] * 4
        assert drive.stats.halted_commands == 4
        assert drive.stats.dead_commands == 0
        assert result.nsectors == 2
        assert written_lbas(drive, 0, SPT) == [0, 1]

        dead = make_drive(sim)
        dead_log = []
        watch(dead.write(0, bytes(SECTOR)), dead_log, "active")
        watch(dead.read(100, 1), dead_log, "queued")
        dead.fail()
        watch(dead.read(0, 1), dead_log, "while-dead")
        sim.run()
        assert [entry[1] for entry in dead_log] == ["DriveFailedError"] * 3
        assert dead.stats.dead_commands == 3
        assert dead.stats.halted_commands == 0


# ----------------------------------------------------------------------
# (c) A timeout left behind by an aborted command is inert

class TestStaleTimeouts:
    @pytest.mark.parametrize("down,up", [("halt", "power_on"),
                                         ("fail", "revive")])
    def test_stale_timeout_cannot_complete_the_next_command(
            self, sim, down, up):
        drive = make_drive(sim)
        log = []
        # Four sectors from mid-track: the command's single timeout
        # is due at 6.25 ms.
        watch(drive.write(6, bytes([0xAA]) * (4 * SECTOR)), log, "old")
        *_, old_end, _position = reference_segments(
            drive, (0, 0), 0.0, 6, 4)

        def scenario():
            yield sim.timeout(0.2)  # still in the command overhead
            getattr(drive, down)()
            getattr(drive, up)()
            # Two full tracks: the first segment's sleep spans the
            # instant the aborted command's timeout fires.
            new = drive.write(4 * SPT, bytes([0xBB]) * (2 * SPT * SECTOR))
            segments, seek, rotation, transfer, end, _position = \
                reference_segments(drive, (0, 0), sim.now, 4 * SPT, 2 * SPT)
            first_end = segments[0][2] + SPT * segments[0][3]
            assert sim.now < old_end < first_end < end
            result = yield new
            assert result.completed_at == end
            assert (result.seek_ms, result.rotation_ms,
                    result.transfer_ms) == (seek, rotation, transfer)

        sim.run_until(sim.process(scenario()))
        sim.run()
        assert [entry[0] for entry in log] == ["old"]
        assert log[0][1] in ("DiskHaltedError", "DriveFailedError")
        # Nothing of the aborted write landed, all of the new one did.
        assert written_lbas(drive, 0, SPT) == []
        assert drive.store.read(4 * SPT, 2 * SPT) == \
            bytes([0xBB]) * (2 * SPT * SECTOR)
        assert drive.stats.writes == 1

    def test_stale_timeout_on_an_idle_drive_is_ignored(self, sim):
        drive = make_drive(sim)
        log = []
        watch(drive.write(0, bytes(SECTOR)), log, "old")
        drive.halt()
        drive.power_on()
        sim.run()  # the aborted command's timeout fires into an idle drive
        assert log == [("old", "DiskHaltedError", None)]
        assert drive.stats.commands == 0
        assert not drive.store.is_written(0)
        done = drive.write(0, bytes([1]) * SECTOR)
        sim.run()
        assert done.ok and drive.store.read_sector(0) == bytes([1]) * SECTOR


# ----------------------------------------------------------------------
# (d) Queue discipline

def service_order(sim, drive, submissions):
    """Submit ``(tag, lba, priority)`` now; tags in completion order."""
    log = []
    for tag, lba, priority in submissions:
        watch(drive.read(lba, 1, priority=priority), log, tag)
    sim.run()
    assert all(outcome == "ok" for _tag, outcome, _value in log)
    return [tag for tag, _outcome, _value in log]


class TestPriorityThenArrival:
    def test_lower_priority_value_first(self, sim):
        drive = make_drive(sim)
        order = service_order(sim, drive, [
            ("pin", 0, PRIORITY_WRITE),  # idle drive: starts at once
            ("rebuild", 10, PRIORITY_REBUILD),
            ("write", 20, PRIORITY_WRITE),
            ("read", 30, PRIORITY_READ)])
        assert order == ["pin", "read", "write", "rebuild"]

    def test_arrival_order_within_a_priority(self, sim):
        drive = make_drive(sim)
        order = service_order(sim, drive, [
            ("pin", 0, PRIORITY_READ),
            ("w1", 300, PRIORITY_WRITE), ("w2", 100, PRIORITY_WRITE),
            ("w3", 200, PRIORITY_WRITE)])
        assert order == ["pin", "w1", "w2", "w3"]

    def test_late_read_overtakes_waiting_writes(self, sim):
        drive = make_drive(sim)
        log = []
        watch(drive.write(0, bytes(SECTOR)), log, "pin")
        for tag in ("w1", "w2"):
            watch(drive.write(50, bytes(SECTOR), priority=PRIORITY_WRITE),
                  log, tag)

        def late_reader():
            yield sim.timeout(0.1)  # the pin is still in service
            watch(drive.read(100, 1), log, "read")

        sim.process(late_reader())
        sim.run()
        assert [tag for tag, *_ in log] == ["pin", "read", "w1", "w2"]

    def test_queue_wait_is_time_behind_the_active_command(self, sim):
        drive = make_drive(sim)
        log = []
        watch(drive.read(0, 1), log, "first")
        watch(drive.read(0, 1), log, "second")
        sim.run()
        first, second = log[0][2], log[1][2]
        assert first.queue_ms == 0.0
        assert second.started_at == first.completed_at
        assert second.queue_ms == first.completed_at - second.enqueued_at


# ----------------------------------------------------------------------
# (e) IoResult decomposition and DriveStats vs the straight-line walk

COMMAND = st.tuples(
    st.sampled_from([Op.READ, Op.WRITE]),
    st.integers(min_value=0, max_value=20 * 2 * SPT - 1),  # lba
    st.integers(min_value=1, max_value=3 * SPT),  # nsectors
    st.sampled_from([PRIORITY_READ, PRIORITY_WRITE, PRIORITY_REBUILD]))
BURSTS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=25.0),  # idle gap before
              st.lists(COMMAND, min_size=1, max_size=5)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(bursts=BURSTS)
def test_decomposition_and_stats_match_reference(bursts):
    sim = Simulation()
    drive = make_drive(sim)
    total = drive.geometry.total_sectors
    results = []
    expected = []
    state = {"position": (0, 0)}

    def fill(lba, nsectors):
        return bytes([(lba + nsectors) % 251 + 1]) * (nsectors * SECTOR)

    def client():
        for gap, commands in bursts:
            yield sim.timeout(gap)
            burst_at = sim.now
            events = []
            for op, lba, nsectors, priority in commands:
                nsectors = min(nsectors, total - lba)
                events.append(drive.submit(
                    op, lba, nsectors,
                    data=fill(lba, nsectors) if op is Op.WRITE else None,
                    priority=priority))
            # Reference: the first command finds the drive idle; the
            # rest go lowest priority value first, then by arrival.
            order = [0] + sorted(range(1, len(commands)),
                                 key=lambda i: (commands[i][3], i))
            now = burst_at
            for index in order:
                op, lba, nsectors, _priority = commands[index]
                nsectors = min(nsectors, total - lba)
                _segs, seek, rotation, transfer, end, state["position"] = \
                    reference_segments(drive, state["position"], now,
                                       lba, nsectors)
                expected.append((op, lba, nsectors, burst_at, now, end,
                                 seek, rotation, transfer))
                now = end
            for event in events:
                event.add_callback(lambda fired: results.append(fired.value))
            yield sim.all_of(events)

    sim.run_until(sim.process(client()))
    assert len(results) == len(expected)
    reference_stats = DriveStats()
    for result, (op, lba, nsectors, enqueued, started, end,
                 seek, rotation, transfer) in zip(results, expected):
        assert (result.op, result.lba, result.nsectors) == (op, lba, nsectors)
        assert result.enqueued_at == enqueued
        assert result.started_at == started
        assert result.completed_at == end
        assert result.queue_ms == started - enqueued
        assert result.overhead_ms == drive.command_overhead_ms
        assert result.seek_ms == seek
        assert result.rotation_ms == rotation
        assert result.transfer_ms == transfer
        assert result.service_ms == pytest.approx(
            result.overhead_ms + seek + rotation + transfer, abs=1e-9)
        if op is Op.READ:
            assert len(result.data) == nsectors * SECTOR
        else:
            assert result.data is None
        reference_stats.record(result)
    assert drive.stats == reference_stats
    assert (drive._position_cylinder, drive._position_head) == \
        state["position"]


# ----------------------------------------------------------------------
# (f) Seeded fault plans: same outcomes as the process-based service

#: Captured on the process-per-command drive (the commit before the
#: callback machine) by running ``faulty_run_digest`` below; the
#: machine must reproduce it draw for draw.  Keys: (seed, clients,
#: power cut at ms).  The cut runs use one client: with commands
#: *queued* at the cut the old drive could leak its queue slot and
#: hang (see test_drive_serves_again_after_a_cut_with_a_queue).
FAULTY_RUN_GOLDEN = {
    (11, 3, None):
        "847d8df1a0b3105d849038202036718a4b8326aa2e2d81232e035d0b27bce83a",
    (23, 3, None):
        "06be50cfedf96aaee05ccd2e75fa3670a8d6b4c841da28cdb1355010f5533336",
    # Cut while positioning, and mid-transfer (off the sector grid: a
    # cut at the exact instant a phase ends is a tie, see
    # test_cut_at_the_instant_a_transfer_ends).
    (11, 1, 131.7):
        "9babe71a0cfa1d29321ceb88d9926b0e39efd09c78bd8066c329e7b2e9118ddc",
    (11, 1, 400.3):
        "2183135f23316140d71d47bcec4f81a430ce6329ba189433eb9088a69594c5de",
    (23, 1, 655.5):
        "195b93964c99b2e52fc90a22475e35f76ddddbdab8fd6cf7d930e0953d514caa",
}


def faulty_run_digest(seed, clients, cut_at):
    """Run a seeded faulty closed-loop workload, optionally cut power.

    Digests every completion (instant, outcome), the drive counters,
    the injector's audit trail and the final platter image.
    """
    sim = Simulation()
    drive = make_tiny_drive(sim, "disk", cylinders=20)
    injector = drive.attach_faults(FaultPlan(
        seed=seed, latent_bad_sectors=frozenset({40, 41, 300}),
        transient_read_error_prob=0.04, transient_write_error_prob=0.04,
        grown_defect_prob=0.05, corruption_prob=0.03,
        latency_spike_prob=0.1, latency_spike_ms=7.0,
        retry_limit=2, spare_sectors=3))
    digest = hashlib.sha256()
    total = drive.geometry.total_sectors

    def note(*fields):
        digest.update(repr(fields).encode())

    def client(name, rng, priority):
        for _ in range(120):
            lba = rng.randrange(total - 40)
            nsectors = rng.choice((1, 2, 8, 20, 35))
            try:
                if rng.random() < 0.5:
                    result = yield drive.read(lba, nsectors,
                                              priority=priority)
                    note(name, "read", lba, sim.now, result.rotation_ms,
                         hashlib.sha256(result.data).hexdigest())
                else:
                    fill = bytes([rng.randrange(1, 256)]) * (nsectors * SECTOR)
                    result = yield drive.write(lba, fill, priority=priority)
                    note(name, "write", lba, sim.now, result.seek_ms)
            except (UnrecoverableSectorError, DiskHaltedError) as exc:
                note(name, type(exc).__name__, lba, sim.now)
                if isinstance(exc, DiskHaltedError):
                    yield sim.timeout(5.0)
            if rng.random() < 0.3:
                yield sim.timeout(rng.random() * 4.0)

    def power_cut():
        yield sim.timeout(cut_at)
        drive.halt()
        yield sim.timeout(2.0)
        drive.power_on()

    running = [
        sim.process(client(
            f"c{index}", random.Random(seed + index),
            PRIORITY_WRITE if index == 1 else PRIORITY_READ))
        for index in range(clients)]
    if cut_at is not None:
        sim.process(power_cut())
    sim.run_until(sim.all_of(running))
    stats = dataclasses.asdict(drive.stats)
    # The process-based drive undercounted this one (the bug this
    # change fixes); every other counter must match.
    halted = stats.pop("halted_commands")
    assert halted == (0 if cut_at is None else 1)
    note(sorted(stats.items()))
    note(sorted(injector.bad_sectors), injector.spares_left,
         injector.corrupted_sectors, injector.grown_defects,
         injector.remapped_sectors)
    for lba, nsectors in drive.store.written_extents():
        note(lba, nsectors)
        digest.update(drive.store.read(lba, nsectors))
    return digest.hexdigest()


@pytest.mark.parametrize("seed,clients,cut_at", sorted(
    FAULTY_RUN_GOLDEN, key=repr))
def test_seeded_faulty_run_matches_process_based_drive(
        seed, clients, cut_at):
    assert faulty_run_digest(seed, clients, cut_at) == \
        FAULTY_RUN_GOLDEN[(seed, clients, cut_at)]
