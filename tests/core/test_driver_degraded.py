"""Degraded mode: the Trail driver survives a dying log disk, and
parked write-back failures are never silently discarded."""

import dataclasses

import pytest

from repro.core.driver import reserved_layout
from repro.core.format import decode_disk_header
from repro.errors import DiskHaltedError, MediaError
from repro.faults import FaultPlan
from repro.sim import Simulation
from tests.conftest import (
    cold_restart, drive_to_completion, make_tiny_drive, make_tiny_trail)

SECTOR = 512


def _log_tracks_bad_plan(log_drive, tracks=slice(None)):
    """A plan that poisons the usable log tracks ``tracks`` selects
    (default: all of them) but spares the header replicas, so header
    updates still land."""
    header_lbas, usable = reserved_layout(log_drive.geometry)
    geometry = log_drive.geometry
    bad = set()
    for track in usable[tracks]:
        first = geometry.track_first_lba(track)
        bad.update(range(first, first + geometry.track_sectors(track)))
    return FaultPlan(latent_bad_sectors=bad, retry_limit=1,
                     spare_sectors=0)


def _probe_log_drive():
    return make_tiny_drive(Simulation(), "log", cylinders=30)


def crash_var_of(log_drive):
    header_lbas, _ = reserved_layout(log_drive.geometry)
    sector = log_drive.store.read_sector(header_lbas[0])
    return decode_disk_header(sector).crash_var


class TestLogDiskDeath:
    def test_degrades_and_every_write_still_acks(self):
        plan = _log_tracks_bad_plan(_probe_log_drive())

        sim, driver, log, data = make_tiny_trail(log_plan=plan)
        assert not driver.degraded

        payloads = {}

        def workload():
            for index in range(6):
                lba = 100 + index * 7
                payload = bytes([index + 1]) * SECTOR
                yield driver.write(lba, payload)
                payloads[lba] = payload

        sim.run_until(sim.process(workload()))
        assert driver.degraded
        assert len(payloads) == 6  # every write acked despite log death
        assert driver.stats.degraded_writes == 6
        assert driver.stats.log_media_errors >= 1
        for lba, payload in payloads.items():
            assert data[0].store.read_sector(lba) == payload

    def test_transition_marks_log_clean_before_first_ack(self):
        plan = _log_tracks_bad_plan(_probe_log_drive())

        sim, driver, log, data = make_tiny_trail(log_plan=plan)

        def one_write():
            yield driver.write(50, b"x" * SECTOR)

        sim.run_until(sim.process(one_write()))
        assert driver.degraded
        # The degraded log is marked clean: stale records from before
        # the failure must never be replayed over write-through data.
        assert crash_var_of(log) == 1

    def test_crash_while_degraded_skips_recovery_and_keeps_data(self):
        plan = _log_tracks_bad_plan(_probe_log_drive())

        sim, driver, log, data = make_tiny_trail(log_plan=plan)
        payloads = {}

        def workload():
            for index in range(4):
                lba = 200 + index
                payload = bytes([0x40 + index]) * SECTOR
                yield driver.write(lba, payload)
                payloads[lba] = payload

        sim.run_until(sim.process(workload()))
        assert driver.degraded
        driver.crash()

        restart = cold_restart(log, data)
        assert restart.report is None  # clean marker: no recovery pass
        for lba, payload in payloads.items():
            assert restart.data[0].store.read_sector(lba) == payload

    def test_failed_replica_write_does_not_strand_later_copies(self):
        """mount() falls back to any header copy that decodes, so the
        clean marker must reach every copy that can take it: a replica
        whose write fails must not leave the copies behind it at
        crash_var = 0 while write-through acknowledgements proceed."""
        sim, driver, log, data = make_tiny_trail()
        header_lbas, _usable = reserved_layout(log.geometry)
        plan = _log_tracks_bad_plan(log)
        log.attach_faults(dataclasses.replace(
            plan, latent_bad_sectors=plan.latent_bad_sectors
            | {header_lbas[1]}))
        payload = b"w" * SECTOR

        def one_write():
            yield driver.write(70, payload)

        sim.run_until(sim.process(one_write()))
        assert driver.degraded and driver.stats.degraded_writes == 1
        assert driver.stats.log_media_errors == 2  # the record, a replica
        assert [decode_disk_header(log.store.read_sector(lba)).crash_var
                for lba in header_lbas] == [1, 0, 1]

        # Crash, lose the primary too: the mount skips the unreadable
        # replica, trusts the last copy's clean marker and replays
        # nothing over the write-through data.
        driver.crash()
        damaged = bytearray(log.store.read_sector(header_lbas[0]))
        damaged[20] ^= 0x01
        log.store.write_sector(header_lbas[0], bytes(damaged))
        restart = cold_restart(log, data, mount=False)
        with pytest.raises(MediaError):
            # Loud: the new epoch's header cannot reach the bad replica.
            drive_to_completion(restart.sim, restart.driver.mount())
        assert restart.driver.last_recovery is None
        assert restart.data[0].store.read_sector(70) == payload


class TestDegradedEntryWithBacklog:
    """The log dies while earlier acknowledged pages still await
    write-back: the clean marker must wait for them (§4.1)."""

    EARLY = {100 + index * 300: bytes([index + 1]) * SECTOR
             for index in range(10)}

    def _stack(self):
        # Only the first usable track takes writes.  The ten-page burst
        # lands there as one record (11 of 16 sectors, past the 30 %
        # threshold), the tail moves on, and the next record's write
        # fails while the scattered pages are still being written back.
        plan = _log_tracks_bad_plan(_probe_log_drive(),
                                    tracks=slice(1, None))
        return make_tiny_trail(log_plan=plan)

    def _workload(self, sim, driver, outcome):
        yield sim.all_of([driver.write(lba, payload)
                          for lba, payload in self.EARLY.items()])
        try:
            yield driver.write(5000, b"z" * SECTOR)
            outcome.append("acked")
        except DiskHaltedError:
            outcome.append("halted")

    @staticmethod
    def _until_degraded(sim, driver):
        while not driver.degraded:
            yield sim.timeout(0.1)

    def test_clean_marker_waits_for_the_backlog(self):
        sim, driver, log, data = self._stack()
        header_writes = []
        write_headers = driver._write_headers

        def spy(crash_var):
            header_writes.append((crash_var, driver.writeback.quiescent))
            return write_headers(crash_var)

        driver._write_headers = spy
        outcome = []
        workload = sim.process(self._workload(sim, driver, outcome))
        sim.run_until(sim.process(self._until_degraded(sim, driver)))
        assert not driver.writeback.quiescent
        assert header_writes == [] and crash_var_of(log) == 0
        sim.run_until(workload)
        assert outcome == ["acked"]
        assert header_writes == [(1, True)]
        assert crash_var_of(log) == 1
        assert driver.stats.degraded_writes == 1
        for lba, payload in self.EARLY.items():
            assert data[0].store.read_sector(lba) == payload
        assert data[0].store.read_sector(5000) == b"z" * SECTOR

    def test_crash_during_the_transition_replays_the_backlog(self):
        sim, driver, log, data = self._stack()
        outcome = []
        sim.process(self._workload(sim, driver, outcome))
        sim.run_until(sim.process(self._until_degraded(sim, driver)))
        on_disk = [data[0].store.read_sector(lba) == payload
                   for lba, payload in self.EARLY.items()]
        assert not all(on_disk)  # a real backlog
        driver.crash()
        sim.run(until=sim.now + 100.0)
        assert outcome == ["halted"]
        assert crash_var_of(log) == 0

        restart = cold_restart(log, data)
        assert restart.report is not None
        assert restart.report.sectors_replayed == len(self.EARLY)
        for lba, payload in self.EARLY.items():
            assert restart.data[0].store.read_sector(lba) == payload

    def test_known_limitation_stale_replica_that_reads_back_valid(self):
        """docs/FAULTS.md "Known limitations", pinned so that a reorder
        of mount()'s fallback cannot widen it unnoticed.  A replica
        whose clean-marker write failed keeps ``crash_var = 0``; if it
        later reads back valid and every copy before it is damaged,
        mount() takes it and replays pre-failure records over newer
        write-through data.  Closing the limitation flips the marked
        assertions."""
        sim, driver, log, data = self._stack()
        header_lbas, _usable = reserved_layout(log.geometry)
        plan = log.faults.plan
        log.attach_faults(dataclasses.replace(
            plan, latent_bad_sectors=plan.latent_bad_sectors
            | {header_lbas[1]}))
        lba, old = next(iter(self.EARLY.items()))
        newer = b"n" * SECTOR

        def workload():
            yield sim.all_of([driver.write(at, payload)
                              for at, payload in self.EARLY.items()])
            yield driver.write(lba, newer)  # kills the log: written through

        sim.run_until(sim.process(workload()))
        assert driver.degraded and driver.stats.degraded_writes == 1
        assert data[0].store.read_sector(lba) == newer
        assert [decode_disk_header(log.store.read_sector(at)).crash_var
                for at in header_lbas] == [1, 0, 1]

        # The failed replica turns out readable after all, and the
        # primary is lost.
        driver.crash()
        log.attach_faults(FaultPlan())
        damaged = bytearray(log.store.read_sector(header_lbas[0]))
        damaged[20] ^= 0x01
        log.store.write_sector(header_lbas[0], bytes(damaged))
        restart = cold_restart(log, data)
        assert restart.report is not None               # the limitation
        assert restart.report.sectors_replayed == len(self.EARLY)
        assert restart.data[0].store.read_sector(lba) == old  # the limitation


class TestWriteThroughMediaError:
    def test_data_disk_error_fails_that_request_only(self):
        sim, driver, log, data = make_tiny_trail(
            log_plan=_log_tracks_bad_plan(_probe_log_drive()),
            data_plan=FaultPlan(latent_bad_sectors={300}, retry_limit=0,
                                spare_sectors=0))
        outcomes = {}

        def workload():
            events = {lba: driver.write(lba, bytes([lba % 251]) * SECTOR)
                      for lba in (299, 300, 301)}
            for lba, event in events.items():
                try:
                    yield event
                    outcomes[lba] = "acked"
                except MediaError:
                    outcomes[lba] = "failed"

        sim.run_until(sim.process(workload()))
        assert driver.degraded
        assert outcomes == {299: "acked", 300: "failed", 301: "acked"}
        assert driver._unacked == {}
        assert driver.stats.degraded_writes == 2
        assert driver.stats.sync_writes.count == 2
        for lba in (299, 301):
            assert data[0].store.read_sector(lba) == bytes([lba % 251]) * SECTOR


class TestParkedWritebackFailures:
    BAD_LBA = 300

    def _plan(self):
        return FaultPlan(latent_bad_sectors={self.BAD_LBA},
                         retry_limit=0, spare_sectors=0)

    def test_flush_completes_with_parked_page(self):
        sim, driver, log, data = make_tiny_trail(
            data_plan=self._plan())

        def workload():
            yield driver.write(self.BAD_LBA, b"p" * SECTOR)
            yield driver.write(500, b"q" * SECTOR)
            yield from driver.flush()

        sim.run_until(sim.process(workload()))
        assert len(driver.writeback.failed_pages) == 1
        key = next(iter(driver.writeback.failed_pages))
        assert key[1] == self.BAD_LBA
        assert data[0].store.read_sector(500) == b"q" * SECTOR

    def test_shutdown_withholds_clean_marker_and_recovery_reports(self):
        sim, driver, log, data = make_tiny_trail(
            data_plan=self._plan())

        def workload():
            yield driver.write(self.BAD_LBA, b"p" * SECTOR)
            yield driver.write(501, b"r" * SECTOR)
            yield from driver.clean_shutdown()

        sim.run_until(sim.process(workload()))
        assert crash_var_of(log) == 0  # forced through recovery

        report = cold_restart(log, data).report  # same bad sector
        assert report is not None
        assert (0, self.BAD_LBA) in report.dropped_sectors

    def test_remap_capable_remount_replays_the_parked_sector(self):
        sim, driver, log, data = make_tiny_trail(
            data_plan=self._plan())

        def workload():
            yield driver.write(self.BAD_LBA, b"p" * SECTOR)
            yield from driver.clean_shutdown()

        sim.run_until(sim.process(workload()))

        # The replacement drive is healthy: replay must succeed.
        restart = cold_restart(log, data, plans=False)
        assert restart.report is not None
        assert restart.report.dropped_sectors == []
        assert restart.data[0].store.read_sector(self.BAD_LBA) \
            == b"p" * SECTOR


class TestEventDrivenFlush:
    def test_idle_flush_returns_without_advancing_time(self):
        sim, driver, _log, _data = make_tiny_trail()
        before = sim.now

        def body():
            yield from driver.flush()
            return sim.now

        end = sim.run_until(sim.process(body()))
        assert end == before

    def test_concurrent_flushes_all_wake(self):
        sim, driver, _log, data = make_tiny_trail()
        done = []

        def writer():
            yield driver.write(64, b"w" * SECTOR)

        def flusher(tag):
            yield from driver.flush()
            done.append(tag)

        sim.process(writer())
        sim.process(flusher("a"))
        sim.process(flusher("b"))
        sim.run()
        assert sorted(done) == ["a", "b"]
        assert data[0].store.read_sector(64) == b"w" * SECTOR
