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

from repro.core.driver import reserved_layout
from repro.core.format import decode_disk_header, decode_record_header
from repro.errors import LogFormatError, MediaError, NotATrailDiskError
from repro.faults import FaultPlan
from repro.faults.oracle import DurabilityOracle
from tests.conftest import cold_restart, make_tiny_trail, write_until_crash


def run_and_crash(seed=0, writes=25, crash_at_ms=150.0, gap_ms=1.0):
    """Seeded workload, crash; returns (oracle, log drive, data disks)."""
    sim, driver, log, data = make_tiny_trail()
    rng = random.Random(seed)
    oracle = DurabilityOracle()
    write_until_crash(sim, driver, oracle,
                      [(rng.randrange(0, 2000), (seed + index) % 255 + 1)
                       for index in range(writes)],
                      crash_at_ms, gap_ms)
    return oracle, log, data


def flip_bit(drive, lba, byte_index, mask):
    sector = bytearray(drive.store.read_sector(lba))
    sector[byte_index] ^= mask
    drive.store.write_sector(lba, bytes(sector))


def pending_records(log, data):
    """The pending chain a recovery of these platters would replay.

    A dry recovery over copies (the crashed drives stay pristine);
    its LocatedRecords, oldest first.  Tests damage one of these — a
    record outside the chain is never read back, so damaging it would
    be invisible by design.
    """
    report = cold_restart(log, data).report
    assert report is not None
    return report.pending


def assert_no_silent_loss(oracle, restart):
    """Every acked write is durable or explicitly reported lost, and
    nothing was invented; returns the audit."""
    result = restart.audit(oracle)
    assert result.ok, result
    return result


class TestPayloadCorruption:
    def test_flipped_payload_bit_is_detected_and_reported(self):
        oracle, log, data = run_and_crash(seed=3, gap_ms=0.0,
                                          crash_at_ms=60.0)
        pending = pending_records(log, data)
        assert len(pending) >= 2
        # Damage a mid-chain record's first payload sector: one bit.
        record = pending[len(pending) // 2 - 1]
        flip_bit(log, record.header.entries[0].log_lba, 100, 0x04)

        restart = cold_restart(log, data)
        assert restart.report.corrupt_records >= 1
        assert restart.report.damaged
        assert_no_silent_loss(oracle, restart)

    def test_corrupt_record_sectors_listed_unless_superseded(self):
        oracle, log, data = run_and_crash(seed=9, gap_ms=0.0,
                                          crash_at_ms=60.0)
        pending = pending_records(log, data)
        assert len(pending) >= 2
        record = pending[len(pending) // 2 - 1]
        entry = record.header.entries[0]
        flip_bit(log, entry.log_lba, 7, 0x80)

        restart = cold_restart(log, data)
        superseded = any(
            other.header.sequence_id > record.header.sequence_id
            and any(other_entry.data_lba == entry.data_lba
                    for other_entry in other.header.entries)
            for other in pending)
        if not superseded:
            assert (0, entry.data_lba) in restart.report.dropped_sectors
        assert_no_silent_loss(oracle, restart)


class TestHeaderCorruption:
    def test_flipped_header_bit_breaks_chain_loudly(self):
        """The new header CRC turns a silently-wrong header (bad
        prev_sect, wrong entry table) into a detected corruption."""
        oracle, log, data = run_and_crash(seed=5, gap_ms=0.0,
                                          crash_at_ms=60.0)
        pending = pending_records(log, data)
        assert len(pending) >= 2
        target_lba = pending[len(pending) // 2 - 1].header_lba
        flip_bit(log, target_lba, 40, 0x01)  # inside the entry table

        # The damaged image no longer decodes.
        with pytest.raises(LogFormatError):
            decode_record_header(log.store.read_sector(target_lba))

        restart = cold_restart(log, data)
        assert restart.report.chain_broken
        assert restart.report.corrupt_records >= 1
        assert_no_silent_loss(oracle, restart)

    def test_flipped_youngest_header_is_reported_not_skipped(self):
        """Bit rot in the youngest acknowledged record's header keeps
        its marker and signature.  The locate scan used to skip it as
        if the sector were empty, so recovery stopped one record early
        and lost that record's writes without a word."""
        oracle, log, data = run_and_crash(seed=5, gap_ms=0.0,
                                          crash_at_ms=60.0)
        youngest = pending_records(log, data)[-1]
        flip_bit(log, youngest.header_lba, 40, 0x01)

        restart = cold_restart(log, data)
        assert restart.report.chain_broken
        assert restart.report.youngest_sequence \
            < youngest.header.sequence_id
        assert assert_no_silent_loss(oracle, restart).excused  # reported


class TestUnreadableSectors:
    def test_unreadable_log_sector_is_skipped_and_counted(self):
        oracle, log, data = run_and_crash(seed=7, gap_ms=0.0,
                                          crash_at_ms=60.0)
        pending = pending_records(log, data)
        assert len(pending) >= 2
        victim = pending[len(pending) // 2 - 1].header.entries[0].log_lba

        log.attach_faults(FaultPlan(latent_bad_sectors={victim},
                                    retry_limit=1, spare_sectors=0))
        restart = cold_restart(log, data)
        assert restart.report.unreadable_sectors >= 1
        assert restart.report.corrupt_records >= 1  # cannot replay
        assert_no_silent_loss(oracle, restart)

    def test_unreadable_sector_during_locate_scan(self):
        """A bad sector in the scanned area must not abort location."""
        oracle, log, data = run_and_crash(seed=11)
        # Damage the sector right after the youngest header: it sits in
        # the scanned track but outside any older record's chain.
        youngest = pending_records(log, data)[-1]
        log.attach_faults(FaultPlan(
            latent_bad_sectors={youngest.header_lba
                                + youngest.header.batch_size + 1},
            retry_limit=0, spare_sectors=0))
        assert_no_silent_loss(oracle, cold_restart(log, data))


class TestDataDiskFailureDuringReplay:
    def test_failed_replay_target_is_reported_dropped(self):
        oracle, log, data = run_and_crash(seed=13)
        # Pick a data LBA carried by the chain and make it unwritable.
        doomed = pending_records(log, data)[-1].header.entries[0].data_lba
        data[0].attach_faults(FaultPlan(latent_bad_sectors={doomed},
                                        retry_limit=0, spare_sectors=0))
        restart = cold_restart(log, data)
        # Either an earlier write-back already put the payload on the
        # data disk or the drop is reported.
        result = assert_no_silent_loss(oracle, restart)
        if (0, doomed) in result.excused:
            assert (0, doomed) in restart.report.dropped_sectors


class TestCleanPathUnchanged:
    def test_undamaged_crash_reports_no_damage(self):
        oracle, log, data = run_and_crash(seed=17)
        restart = cold_restart(log, data)
        assert not restart.report.damaged
        assert not assert_no_silent_loss(oracle, restart).excused


class TestHeaderReplicaFallback:
    """§4.1 keeps header replicas "to improve the robustness": mount
    takes the first copy that reads and decodes, so damage to the
    primary no longer strands the acknowledged writes behind it."""

    @staticmethod
    def header_lbas(log):
        lbas, _usable = reserved_layout(log.geometry)
        written = log.store.snapshot()
        assert len(lbas) == 3 and all(lba in written for lba in lbas)
        return lbas

    def test_bit_flipped_primary_recovers_from_a_replica(self):
        oracle, log, data = run_and_crash(seed=21)
        assert oracle.acked_writes
        primary = self.header_lbas(log)[0]
        flip_bit(log, primary, 20, 0x01)
        with pytest.raises(LogFormatError):
            decode_disk_header(log.store.read_sector(primary))
        restart = cold_restart(log, data)
        assert restart.report.records_found > 0
        assert not restart.report.damaged
        assert not assert_no_silent_loss(oracle, restart).excused
        # Mount rewrites every copy, which repairs the damaged one.
        repaired = decode_disk_header(restart.log.store.read_sector(primary))
        assert (repaired.epoch, repaired.crash_var) == (2, 0)

    def test_latent_bad_primary_sector_recovers_from_a_replica(self):
        oracle, log, data = run_and_crash(seed=22)
        assert oracle.acked_writes
        primary = self.header_lbas(log)[0]
        log.attach_faults(FaultPlan(latent_bad_sectors={primary},
                                    retry_limit=0))
        restart = cold_restart(log, data)
        assert restart.report.records_found > 0
        assert not assert_no_silent_loss(oracle, restart).excused
        assert restart.log.stats.read_errors == 1

    def test_every_copy_flipped_is_not_a_trail_disk(self):
        _oracle, log, data = run_and_crash(seed=23)
        for lba in self.header_lbas(log):
            flip_bit(log, lba, 20, 0x01)
        with pytest.raises(NotATrailDiskError, match="checksum"):
            cold_restart(log, data)

    def test_every_copy_unreadable_raises_the_media_error(self):
        _oracle, log, data = run_and_crash(seed=23)
        log.attach_faults(FaultPlan(
            latent_bad_sectors=set(self.header_lbas(log)), retry_limit=0))
        with pytest.raises(MediaError):
            cold_restart(log, data)

    def test_fault_free_mount_reads_one_header_copy(self):
        _oracle, log, data = run_and_crash(seed=24)
        header_lbas = self.header_lbas(log)
        restart = cold_restart(log, data, mount=False)
        reads = []
        plain_read = restart.log.read

        def counting_read(lba, nsectors, **kwargs):
            reads.append(lba)
            return plain_read(lba, nsectors, **kwargs)

        restart.log.read = counting_read
        restart.sim.run_until(restart.sim.process(restart.driver.mount()))
        assert [lba for lba in reads if lba in header_lbas] \
            == header_lbas[:1]
