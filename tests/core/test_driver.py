"""Integration-grade unit tests for the Trail driver (§4)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver, reserved_layout
from repro.errors import (
    DiskHaltedError, NotATrailDiskError, TrailError)
from repro.faults import FaultPlan
from repro.sim import Simulation
from tests.conftest import (
    cold_restart, drive_to_completion, make_tiny_drive, make_tiny_trail)

SECTOR = 512


class TestFormatAndMount:
    def test_mount_unformatted_disk_rejected(self, sim):
        log = make_tiny_drive(sim, "log")
        data = make_tiny_drive(sim, "data")
        driver = TrailDriver(sim, log, {0: data})
        with pytest.raises(NotATrailDiskError):
            drive_to_completion(sim, driver.mount())

    def test_mount_succeeds_on_formatted_disk(self):
        sim, driver, _log, _data = make_tiny_trail()
        assert driver.mounted
        assert driver.epoch == 1

    def test_epoch_increments_per_mount(self):
        sim, driver, log, data = make_tiny_trail()
        drive_to_completion(sim, driver.clean_shutdown())
        second = TrailDriver(sim, log, data,
                             TrailConfig(idle_reposition_interval_ms=0))
        drive_to_completion(sim, second.mount())
        assert second.epoch == 2

    def test_double_mount_rejected(self):
        sim, driver, _log, _data = make_tiny_trail()
        with pytest.raises(TrailError):
            next(driver.mount())

    def test_clean_shutdown_skips_recovery_on_next_mount(self):
        sim, driver, log, data = make_tiny_trail()
        drive_to_completion(
            sim, self_write(sim, driver, 10, b"x" * SECTOR))
        drive_to_completion(sim, driver.clean_shutdown())
        second = TrailDriver(sim, log, data,
                             TrailConfig(idle_reposition_interval_ms=0))
        drive_to_completion(sim, second.mount())
        assert second.last_recovery is None

    def test_requests_rejected_when_unmounted(self, sim):
        log = make_tiny_drive(sim, "log")
        data = make_tiny_drive(sim, "data")
        TrailDriver.format_disk(log)
        driver = TrailDriver(sim, log, {0: data})
        with pytest.raises(TrailError):
            driver.write(0, b"x")
        with pytest.raises(TrailError):
            driver.read(0, 1)

    def test_needs_a_data_disk(self, sim):
        log = make_tiny_drive(sim, "log")
        with pytest.raises(TrailError):
            TrailDriver(sim, log, {})

    @given(cylinders=st.integers(6, 60), heads=st.integers(1, 4))
    def test_reserved_layout_excludes_header_tracks(self, cylinders, heads):
        sim = Simulation()
        log = make_tiny_drive(sim, "log", cylinders=cylinders, heads=heads)
        header_lbas, usable = reserved_layout(log.geometry)
        assert len(header_lbas) == 3
        header_tracks = {log.geometry.track_of_lba(lba)
                         for lba in header_lbas}
        assert header_tracks.isdisjoint(usable)
        assert 0 not in usable
        assert 1 not in usable


def self_write(sim, driver, lba, data, disk_id=0):
    def body():
        latency = yield driver.write(lba, data, disk_id=disk_id)
        return latency
    return body()


def self_read(sim, driver, lba, nsectors, disk_id=0):
    def body():
        data = yield driver.read(lba, nsectors, disk_id=disk_id)
        return data
    return body()


class TestWritePath:
    def test_ack_before_data_disk_write(self):
        sim, driver, _log, data_disks = make_tiny_trail()
        latency = drive_to_completion(
            sim, self_write(sim, driver, 40, b"A" * SECTOR))
        assert latency > 0
        # Acknowledged but not necessarily on the data disk yet; it
        # must arrive eventually.
        drive_to_completion(sim, driver.flush())
        assert data_disks[0].store.read_sector(40) == b"A" * SECTOR

    def test_write_latency_beats_direct_write(self):
        """The headline property: Trail's sync write is much faster
        than an in-place write on the same geometry."""
        sim, driver, _log, data_disks = make_tiny_trail()
        trail_latency = drive_to_completion(
            sim, self_write(sim, driver, 1500, b"B" * SECTOR))

        def direct():
            result = yield data_disks[0].write(2500, b"B" * SECTOR)
            return result.latency_ms

        direct_latency = drive_to_completion(sim, direct())
        assert trail_latency < direct_latency

    def test_logical_write_counts(self):
        sim, driver, _log, _data = make_tiny_trail()
        for index in range(5):
            drive_to_completion(
                sim, self_write(sim, driver, index * 8,
                                bytes([index]) * SECTOR))
        assert driver.stats.logical_writes == 5
        assert driver.stats.sync_writes.count == 5

    def test_empty_write_rejected(self):
        sim, driver, _log, _data = make_tiny_trail()
        with pytest.raises(TrailError):
            driver.write(0, b"")

    def test_unknown_disk_id_rejected(self):
        sim, driver, _log, _data = make_tiny_trail()
        with pytest.raises(TrailError):
            driver.write(0, b"x", disk_id=7)

    def test_extent_checked_against_data_disk(self):
        sim, driver, _log, data_disks = make_tiny_trail()
        beyond = data_disks[0].geometry.total_sectors
        from repro.errors import AddressError
        with pytest.raises(AddressError):
            driver.write(beyond, b"x")

    def test_large_write_spans_records(self):
        """A write bigger than one record's batch capacity is split
        across multiple records but acked once."""
        config = TrailConfig(idle_reposition_interval_ms=0)
        sim, driver, _log, data_disks = make_tiny_trail(config)
        # Tiny log tracks hold 16 sectors; a 30-sector write cannot fit
        # one record (or even one track).
        payload = bytes(range(256)) * 60  # 30 sectors
        drive_to_completion(sim, self_write(sim, driver, 100, payload))
        assert driver.stats.physical_log_writes >= 2
        drive_to_completion(sim, driver.flush())
        assert data_disks[0].store.read(100, 30) == payload

    def test_batching_coalesces_queued_writes(self):
        sim, driver, _log, _data = make_tiny_trail()

        def burst():
            events = [driver.write(index * 4, bytes([index]) * SECTOR)
                      for index in range(6)]
            yield sim.all_of(events)

        drive_to_completion(sim, burst())
        # 6 logical writes needed fewer physical log writes.
        assert driver.stats.physical_log_writes < 6
        assert driver.stats.batch_sizes.maximum >= 2

    def test_track_switch_after_threshold(self):
        config = TrailConfig(track_utilization_threshold=0.30,
                             idle_reposition_interval_ms=0)
        sim, driver, _log, _data = make_tiny_trail(config)
        start_track = driver.allocator.current_track
        # 16-sector tracks: one 4-sector record (header+3) stays below
        # 30%? 4/16 = 25%; two pass it.
        drive_to_completion(sim, self_write(sim, driver, 0, bytes(3 * SECTOR)))
        drive_to_completion(sim, self_write(sim, driver, 8, bytes(3 * SECTOR)))
        sim.run(until=sim.now + 30)  # let the reposition read finish
        assert driver.allocator.current_track != start_track
        assert driver.stats.repositions >= 1

    def test_low_utilization_multiple_records_per_track(self):
        config = TrailConfig(track_utilization_threshold=0.90,
                             idle_reposition_interval_ms=0)
        sim, driver, _log, _data = make_tiny_trail(config)
        track = driver.allocator.current_track
        for index in range(3):
            drive_to_completion(
                sim, self_write(sim, driver, index * 8, bytes(SECTOR)))
        assert driver.allocator.current_track == track
        assert driver.stats.repositions == 0


class TestReadPath:
    def test_read_hits_staging_buffer(self):
        sim, driver, _log, _data = make_tiny_trail()
        drive_to_completion(sim, self_write(sim, driver, 64, b"C" * SECTOR))
        data = drive_to_completion(sim, self_read(sim, driver, 64, 1))
        assert data == b"C" * SECTOR
        assert driver.stats.reads_from_buffer >= 1

    def test_read_from_disk_after_flush(self):
        sim, driver, _log, _data = make_tiny_trail()
        drive_to_completion(sim, self_write(sim, driver, 64, b"D" * SECTOR))
        drive_to_completion(sim, driver.flush())
        data = drive_to_completion(sim, self_read(sim, driver, 64, 1))
        assert data == b"D" * SECTOR
        assert driver.stats.reads_from_disk >= 1

    def test_read_overlays_pinned_pages(self):
        """A wide read mixing on-disk and still-pinned sectors sees the
        newest content for both."""
        sim, driver, _log, _data = make_tiny_trail()
        drive_to_completion(sim, self_write(sim, driver, 10, b"1" * SECTOR))
        drive_to_completion(sim, driver.flush())       # sector 10 on disk
        drive_to_completion(sim, self_write(sim, driver, 11, b"2" * SECTOR))
        data = drive_to_completion(sim, self_read(sim, driver, 10, 2))
        assert data == b"1" * SECTOR + b"2" * SECTOR

    def test_unwritten_sectors_read_zero(self):
        sim, driver, _log, _data = make_tiny_trail()
        data = drive_to_completion(sim, self_read(sim, driver, 900, 2))
        assert data == bytes(2 * SECTOR)


class TestReferenceAnchoring:
    def test_predicted_write_avoids_rotation(self):
        """After the first write anchors everything, subsequent sparse
        writes see sub-sector rotational waits."""
        sim, driver, _log, _data = make_tiny_trail()

        def workload():
            for index in range(10):
                yield driver.write(index * 8, bytes([index]) * SECTOR)
                yield sim.timeout(3.0)

        drive_to_completion(sim, workload())
        mean_rotation = driver.predictor.realized_rotation.mean
        spt = driver.geometry.track_sectors(
            driver.allocator.current_track)
        sector_time = driver.log_drive.rotation.sector_time(spt)
        delta_budget = (driver.predictor.delta_sectors + 1) * sector_time
        assert mean_rotation <= delta_budget

    def test_idle_repositioner_keeps_prediction_fresh_under_drift(self):
        """With rotation drift, long idle gaps would make predictions
        stale; the periodic repositioner re-anchors so writes stay
        fast."""
        def run(interval):
            # 0.8 revolutions/s of drift: over a 400 ms idle gap the
            # platter leads a stale prediction by ~5 sectors (past the
            # delta margin -> a full-rotation miss), while over the
            # repositioner's 100 ms refresh interval it stays within it.
            drift = lambda t: t / 1000.0 * 0.8
            sim = Simulation()
            log = make_tiny_drive(sim, "log", cylinders=30,
                                  phase_drift=drift)
            data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                                   sectors_per_track=32)
            config = TrailConfig(idle_reposition_interval_ms=interval)
            TrailDriver.format_disk(log)
            driver = TrailDriver(sim, log, {0: data}, config)
            drive_to_completion(sim, driver.mount())

            def workload():
                total = 0.0
                for index in range(6):
                    yield sim.timeout(400.0)  # long idle gap
                    started = sim.now
                    yield driver.write(index * 8, bytes(SECTOR))
                    total += sim.now - started
                return total

            return drive_to_completion(sim, workload())

        with_repositioner = run(interval=100.0)
        without = run(interval=0.0)
        assert with_repositioner < without

    def test_repositioner_idle_only(self):
        """The repositioner never runs while writes are in flight."""
        sim, driver, _log, _data = make_tiny_trail(
            TrailConfig(idle_reposition_interval_ms=50.0))

        def busy_workload():
            for index in range(40):
                yield driver.write(index * 4, bytes(SECTOR))

        drive_to_completion(sim, busy_workload())
        # Back-to-back writes leave no idle window.
        assert driver.stats.repositions <= driver.stats.physical_log_writes


def make_trail_with_unreadable_log_track(which, config):
    """A mounted stack whose ``which``-th usable log track is latently
    bad: reads there fail at once, writes are remapped to spares."""
    sim, driver, log, data_disks = make_tiny_trail(config, mount=False)
    _header_lbas, usable = reserved_layout(log.geometry)
    first = log.geometry.track_first_lba(usable[which])
    spt = log.geometry.track_sectors(usable[which])
    log.attach_faults(FaultPlan(
        latent_bad_sectors=set(range(first, first + spt)), retry_limit=0))
    drive_to_completion(sim, driver.mount())
    return sim, driver, log, data_disks[0], usable


class TestRepositionReadMediaError:
    """Repositioning is a latency optimization: an unreadable anchor
    sector costs prediction accuracy, never a write."""

    def test_explicit_reposition_read_error_is_swallowed(self):
        sim, driver, log, data, usable = make_trail_with_unreadable_log_track(
            1, TrailConfig(idle_reposition_interval_ms=0))

        def workload():
            # 7 of 16 sectors passes the 30 % threshold: the tail moves
            # to the bad track and the explicit read there fails.
            yield driver.write(0, b"a" * SECTOR * 6)
            yield sim.timeout(30.0)
            assert driver.allocator.current_track == usable[1]
            assert log.stats.read_errors == 1
            assert driver.stats.repositions == 0
            yield driver.write(64, b"b" * SECTOR * 2)

        drive_to_completion(sim, workload())
        assert not driver.degraded
        assert driver.stats.physical_log_writes == 2
        assert log.stats.sectors_remapped == 3
        drive_to_completion(sim, driver.flush())
        assert data.store.read(0, 6) == b"a" * SECTOR * 6
        assert data.store.read(64, 2) == b"b" * SECTOR * 2

    def test_idle_reposition_read_error_is_swallowed(self):
        sim, driver, log, data, usable = make_trail_with_unreadable_log_track(
            0, TrailConfig(idle_reposition_interval_ms=50.0))
        assert log.stats.read_errors == 1  # the mount-time anchor read

        def workload():
            yield sim.timeout(160.0)
            assert log.stats.read_errors > 1  # idle re-anchors failed too
            assert driver.stats.repositions == 0
            assert driver.allocator.current_track == usable[0]
            yield driver.write(64, b"b" * SECTOR * 2)

        drive_to_completion(sim, workload())
        assert not driver.degraded
        assert driver.stats.physical_log_writes == 1
        drive_to_completion(sim, driver.flush())
        assert data.store.read(64, 2) == b"b" * SECTOR * 2


class TestCrashAndRecovery:
    def test_crash_fails_queued_writes(self):
        sim, driver, _log, _data = make_tiny_trail()
        outcomes = []

        def writer(lba):
            try:
                yield driver.write(lba, bytes(SECTOR))
                outcomes.append("ok")
            except DiskHaltedError:
                outcomes.append("failed")

        for lba in (0, 8, 16):
            sim.process(writer(lba))

        def crasher():
            yield sim.timeout(0.05)  # after enqueue, before completion
            driver.crash()

        sim.process(crasher())
        sim.run(until=100)
        assert outcomes == ["failed", "failed", "failed"]

    def test_acknowledged_writes_survive_crash(self):
        sim, driver, log, data_disks = make_tiny_trail()
        acked = {}

        def workload():
            for index in range(12):
                payload = bytes([index + 1]) * SECTOR
                yield driver.write(index * 8, payload)
                acked[index * 8] = payload

        drive_to_completion(sim, workload())
        driver.crash()
        sim.run(until=10_000)

        restart = cold_restart(log, data_disks)
        assert restart.report is not None
        for lba, payload in acked.items():
            assert restart.data[0].store.read_sector(lba) == payload

    def test_log_full_blocks_until_writeback_frees_tracks(self):
        """With a minuscule log and a slow data disk, writers stall on
        LogDiskFull and resume as write-backs release tracks — no
        failure, no data loss, and a stalled advance retires its track
        once however often it is retried."""
        sim = Simulation()
        log = make_tiny_drive(sim, "log", cylinders=7, heads=1)  # 7 tracks
        data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                               sectors_per_track=32)
        # Every data-disk command pays two extra revolutions, so the
        # three usable log tracks fill faster than write-back frees them.
        data.attach_faults(FaultPlan(latency_spike_prob=1.0,
                                     latency_spike_ms=20.0))
        TrailDriver.format_disk(log)
        driver = TrailDriver(sim, log, {0: data},
                             TrailConfig(idle_reposition_interval_ms=0))
        drive_to_completion(sim, driver.mount())
        allocator = driver.allocator
        assert allocator.track_count == 3
        advanced = []
        advance = allocator.advance
        allocator.advance = lambda: advanced.append(advance())

        def flood():
            events = [driver.write(index * 16, bytes([index]) * SECTOR * 12)
                      for index in range(12)]
            yield sim.all_of(events)

        drive_to_completion(sim, flood())
        assert driver.stats.log_full_stalls > 0
        assert driver.stats.sync_writes.count == 12
        assert allocator.tracks_consumed == len(advanced)
        assert len(allocator.retired_utilizations) == len(advanced)
        drive_to_completion(sim, driver.flush())
        for index in range(12):
            assert (data.store.read(index * 16, 12)
                    == bytes([index]) * SECTOR * 12)
