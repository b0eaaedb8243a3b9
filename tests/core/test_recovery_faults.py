"""Recovery vs media damage: checksum detection, skipping, reporting.

Each test runs a workload, crashes it, damages the platters (bit
flips) or the drives (bad sectors on remount), and asserts recovery's
central contract: corrupt or unreadable log records are never replayed
and never silently dropped — every affected sector either reaches its
data disk via a later intact record or is listed in the
RecoveryReport.
"""

import random

import pytest

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver, reserved_layout
from repro.core.format import decode_disk_header, decode_record_header
from repro.errors import LogFormatError, MediaError, NotATrailDiskError
from repro.faults import FaultPlan
from repro.sim import Simulation
from tests.conftest import make_tiny_drive

SECTOR = 512


def run_and_crash(seed=0, writes=25, crash_at_ms=150.0, gap_ms=1.0):
    """Seeded workload, crash, return (acked, log store, data store)."""
    config = TrailConfig(idle_reposition_interval_ms=0)
    sim = Simulation()
    log = make_tiny_drive(sim, "log", cylinders=30)
    data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                           sectors_per_track=32)
    TrailDriver.format_disk(log, config)
    driver = TrailDriver(sim, log, {0: data}, config)
    rng = random.Random(seed)
    acked = {}

    def workload():
        try:
            yield sim.process(driver.mount())
            for index in range(writes):
                lba = rng.randrange(0, 2000)
                payload = bytes([(seed + index) % 255 + 1]) * SECTOR
                yield driver.write(lba, payload)
                acked[lba] = payload
                if gap_ms:
                    yield sim.timeout(gap_ms)
        except Exception:
            return

    process = sim.process(workload())

    def crasher():
        yield sim.timeout(crash_at_ms)
        if process.is_alive:
            process.interrupt("power failure")
        driver.crash()

    sim.process(crasher())
    sim.run()
    return acked, log.store.snapshot(), data.store.snapshot()


def remount(log_snapshot, data_snapshot, log_plan=None, data_plan=None):
    """Fresh stack over the snapshots; returns (report, data store)."""
    report, _log, data = remount_drives(log_snapshot, data_snapshot,
                                        log_plan, data_plan)
    return report, data.store


def remount_drives(log_snapshot, data_snapshot, log_plan=None,
                   data_plan=None):
    """Fresh stack over the snapshots; (report, log drive, data drive)."""
    config = TrailConfig(idle_reposition_interval_ms=0)
    sim = Simulation()
    log = make_tiny_drive(sim, "log", cylinders=30)
    data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                           sectors_per_track=32)
    log.store.restore(log_snapshot)
    data.store.restore(data_snapshot)
    if log_plan is not None:
        log.attach_faults(log_plan)
    if data_plan is not None:
        data.attach_faults(data_plan)
    driver = TrailDriver(sim, log, {0: data}, config)
    report = sim.run_until(sim.process(driver.mount()))
    return report, log, data


def find_records(log_snapshot, epoch=1):
    """All record headers on the platter, sorted by sequence id.

    ``log_snapshot`` is the sparse LBA -> bytes dict SectorStore
    snapshots produce.
    """
    records = []
    for lba, sector in log_snapshot.items():
        try:
            header = decode_record_header(sector, expected_epoch=epoch)
        except LogFormatError:
            continue
        records.append((lba, header))
    records.sort(key=lambda pair: pair[1].sequence_id)
    return records


def flip_bit(snapshot, lba, byte_index, mask):
    sector = bytearray(snapshot[lba])
    sector[byte_index] ^= mask
    snapshot[lba] = bytes(sector)


def pending_records(log_snap, data_snap):
    """The pending chain a recovery of these snapshots would replay.

    Runs a dry recovery over copies (restore is copy-on-write, so the
    snapshots stay pristine) and returns its LocatedRecords, oldest
    first.  Tests damage one of these — a record outside the chain is
    never read back, so damaging it would be invisible by design.
    """
    report, _store = remount(dict(log_snap), dict(data_snap))
    assert report is not None
    return report.pending


def assert_no_silent_loss(acked, report, store):
    """Every acked write is durable or explicitly reported lost."""
    for lba, payload in acked.items():
        if store.read_sector(lba) == payload:
            continue
        assert (0, lba) in report.dropped_sectors or report.chain_broken, (
            f"LBA {lba} lost without being reported")


class TestPayloadCorruption:
    def test_flipped_payload_bit_is_detected_and_reported(self):
        acked, log_snap, data_snap = run_and_crash(seed=3, gap_ms=0.0,
                                                   crash_at_ms=60.0)
        pending = pending_records(log_snap, data_snap)
        assert len(pending) >= 2
        # Damage a mid-chain record's first payload sector: one bit.
        record = pending[len(pending) // 2 - 1]
        victim = record.header.entries[0].log_lba
        flip_bit(log_snap, victim, 100, 0x04)

        report, store = remount(log_snap, data_snap)
        assert report is not None
        assert report.corrupt_records >= 1
        assert report.damaged
        assert_no_silent_loss(acked, report, store)

    def test_corrupt_record_sectors_listed_unless_superseded(self):
        acked, log_snap, data_snap = run_and_crash(seed=9, gap_ms=0.0,
                                                   crash_at_ms=60.0)
        pending = pending_records(log_snap, data_snap)
        assert len(pending) >= 2
        record = pending[len(pending) // 2 - 1]
        entry = record.header.entries[0]
        flip_bit(log_snap, entry.log_lba, 7, 0x80)

        report, store = remount(log_snap, data_snap)
        superseded = any(
            other.header.sequence_id > record.header.sequence_id
            and any(other_entry.data_lba == entry.data_lba
                    for other_entry in other.header.entries)
            for other in pending)
        if not superseded:
            assert (0, entry.data_lba) in report.dropped_sectors
        assert_no_silent_loss(acked, report, store)


class TestHeaderCorruption:
    def test_flipped_header_bit_breaks_chain_loudly(self):
        """The new header CRC turns a silently-wrong header (bad
        prev_sect, wrong entry table) into a detected corruption."""
        acked, log_snap, data_snap = run_and_crash(seed=5, gap_ms=0.0,
                                                   crash_at_ms=60.0)
        pending = pending_records(log_snap, data_snap)
        assert len(pending) >= 2
        target_lba = pending[len(pending) // 2 - 1].header_lba
        flip_bit(log_snap, target_lba, 40, 0x01)  # inside the entry table

        # The damaged image no longer decodes.
        try:
            decode_record_header(log_snap[target_lba])
            decoded = True
        except LogFormatError:
            decoded = False
        assert not decoded

        report, store = remount(log_snap, data_snap)
        assert report is not None
        assert report.chain_broken
        assert report.corrupt_records >= 1
        assert report.damaged
        assert_no_silent_loss(acked, report, store)


class TestUnreadableSectors:
    def test_unreadable_log_sector_is_skipped_and_counted(self):
        acked, log_snap, data_snap = run_and_crash(seed=7, gap_ms=0.0,
                                                   crash_at_ms=60.0)
        pending = pending_records(log_snap, data_snap)
        assert len(pending) >= 2
        victim = pending[len(pending) // 2 - 1].header.entries[0].log_lba

        report, store = remount(
            log_snap, data_snap,
            log_plan=FaultPlan(latent_bad_sectors={victim},
                               retry_limit=1, spare_sectors=0))
        assert report is not None
        assert report.unreadable_sectors >= 1
        assert report.corrupt_records >= 1  # its record cannot replay
        assert_no_silent_loss(acked, report, store)

    def test_unreadable_sector_during_locate_scan(self):
        """A bad sector in the scanned area must not abort location."""
        acked, log_snap, data_snap = run_and_crash(seed=11)
        records = find_records(log_snap)
        # Damage the sector right after the youngest header: it sits in
        # the scanned track but outside any older record's chain.
        youngest_lba, youngest = records[-1]

        report, store = remount(
            log_snap, data_snap,
            log_plan=FaultPlan(
                latent_bad_sectors={youngest_lba
                                    + len(youngest.entries) + 1},
                retry_limit=0, spare_sectors=0))
        assert report is not None
        assert_no_silent_loss(acked, report, store)


class TestDataDiskFailureDuringReplay:
    def test_failed_replay_target_is_reported_dropped(self):
        acked, log_snap, data_snap = run_and_crash(seed=13)
        records = find_records(log_snap)
        # Pick a data LBA carried by the chain and make it unwritable.
        _lba, header = records[-1]
        doomed = header.entries[0].data_lba

        report, store = remount(
            log_snap, data_snap,
            data_plan=FaultPlan(latent_bad_sectors={doomed},
                                retry_limit=0, spare_sectors=0))
        assert report is not None
        # Either an earlier write-back already put the payload on the
        # data disk (store matches) or the drop is reported.
        assert_no_silent_loss(acked, report, store)
        if store.read_sector(doomed) != acked.get(doomed):
            assert (0, doomed) in report.dropped_sectors


class TestCleanPathUnchanged:
    def test_undamaged_crash_reports_no_damage(self):
        acked, log_snap, data_snap = run_and_crash(seed=17)
        report, store = remount(log_snap, data_snap)
        assert report is not None
        assert not report.damaged or report.dropped_sectors == sorted(
            set(report.dropped_sectors))
        for lba, payload in acked.items():
            assert store.read_sector(lba) == payload


class TestHeaderReplicaFallback:
    """§4.1 keeps header replicas "to improve the robustness": mount
    takes the first copy that reads and decodes, so damage to the
    primary no longer strands the acknowledged writes behind it."""

    @staticmethod
    def header_lbas(log_snap):
        sim = Simulation()
        probe = make_tiny_drive(sim, "log", cylinders=30)
        lbas, _usable = reserved_layout(probe.geometry, TrailConfig())
        assert len(lbas) == 3 and all(lba in log_snap for lba in lbas)
        return lbas

    def test_bit_flipped_primary_recovers_from_a_replica(self):
        acked, log_snap, data_snap = run_and_crash(seed=21)
        assert acked
        primary = self.header_lbas(log_snap)[0]
        flip_bit(log_snap, primary, 20, 0x01)
        with pytest.raises(LogFormatError):
            decode_disk_header(log_snap[primary])
        report, log, data = remount_drives(log_snap, data_snap)
        assert report is not None and report.records_found > 0
        assert not report.damaged
        for lba, payload in acked.items():
            assert data.store.read_sector(lba) == payload
        # Mount rewrites every copy, which repairs the damaged one.
        repaired = decode_disk_header(log.store.read_sector(primary))
        assert (repaired.epoch, repaired.crash_var) == (2, 0)

    def test_latent_bad_primary_sector_recovers_from_a_replica(self):
        acked, log_snap, data_snap = run_and_crash(seed=22)
        assert acked
        primary = self.header_lbas(log_snap)[0]
        plan = FaultPlan(latent_bad_sectors={primary}, retry_limit=0)
        report, log, data = remount_drives(log_snap, data_snap,
                                           log_plan=plan)
        assert report is not None and report.records_found > 0
        for lba, payload in acked.items():
            assert data.store.read_sector(lba) == payload
        assert log.stats.read_errors == 1

    def test_every_copy_flipped_is_not_a_trail_disk(self):
        _acked, log_snap, data_snap = run_and_crash(seed=23)
        for lba in self.header_lbas(log_snap):
            flip_bit(log_snap, lba, 20, 0x01)
        with pytest.raises(NotATrailDiskError, match="checksum"):
            remount(log_snap, data_snap)

    def test_every_copy_unreadable_raises_the_media_error(self):
        _acked, log_snap, data_snap = run_and_crash(seed=23)
        plan = FaultPlan(
            latent_bad_sectors=set(self.header_lbas(log_snap)),
            retry_limit=0)
        with pytest.raises(MediaError):
            remount(log_snap, data_snap, log_plan=plan)

    def test_fault_free_mount_reads_one_header_copy(self):
        _acked, log_snap, data_snap = run_and_crash(seed=24)
        header_lbas = self.header_lbas(log_snap)
        sim = Simulation()
        log = make_tiny_drive(sim, "log", cylinders=30)
        data = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                               sectors_per_track=32)
        log.store.restore(log_snap)
        data.store.restore(data_snap)
        reads = []
        plain_read = log.read

        def counting_read(lba, nsectors, **kwargs):
            reads.append(lba)
            return plain_read(lba, nsectors, **kwargs)

        log.read = counting_read
        driver = TrailDriver(sim, log, {0: data},
                             TrailConfig(idle_reposition_interval_ms=0))
        sim.run_until(sim.process(driver.mount()))
        assert [lba for lba in reads if lba in header_lbas] \
            == header_lbas[:1]
