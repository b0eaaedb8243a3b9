"""Unit tests for the three-step recovery procedure (§3.3)."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.core.config import TrailConfig
from repro.core.format import (
    BatchEntry, NULL_LBA, RecordHeader, encode_record)
import repro.core.recovery as recovery_module
from repro.core.recovery import RecoveryManager
from repro.errors import RecoveryError
from tests.conftest import drive_to_completion, make_tiny_drive

SECTOR = 512
EPOCH = 5


class LogBuilder:
    """Fabricates a valid record chain directly in a drive's store."""

    def __init__(self, drive, usable_tracks):
        self.drive = drive
        self.geometry = drive.geometry
        self.usable = list(usable_tracks)
        self.prev = NULL_LBA
        self.sequence = 0
        self.records = []  # (header_lba, header, payloads)

    def add(self, position, start_sector, payloads, data_lbas,
            log_head=None, epoch=EPOCH):
        track = self.usable[position]
        header_lba = self.geometry.track_first_lba(track) + start_sector
        entries = tuple(
            BatchEntry(data_lba=data_lba, log_lba=header_lba + 1 + index,
                       first_data_byte=payload[0], data_major=0)
            for index, (payload, data_lba)
            in enumerate(zip(payloads, data_lbas)))
        if log_head is None:
            log_head = (self.records[0][0] if self.records
                        else header_lba)
        header = RecordHeader(epoch=epoch, sequence_id=self.sequence,
                              prev_sect=self.prev, log_head=log_head,
                              entries=entries)
        blob = b"".join(encode_record(header, payloads, SECTOR))
        self.drive.store.write(header_lba, blob)
        self.records.append((header_lba, header, payloads))
        self.prev = header_lba
        self.sequence += 1
        return header_lba


@pytest.fixture
def setup(sim):
    log = make_tiny_drive(sim, "log", cylinders=10)  # 20 tracks
    data = make_tiny_drive(sim, "data", cylinders=40, heads=4)
    usable = list(range(1, 20))
    return sim, log, data, usable


def run_recovery(sim, log, data, usable, config=None):
    manager = RecoveryManager(sim, log, log.geometry, usable, EPOCH,
                              {0: data}, config)
    return drive_to_completion(sim, manager.run())


class TestLocate:
    def test_empty_log(self, setup):
        sim, log, data, usable = setup
        report = run_recovery(sim, log, data, usable)
        assert report.records_found == 0
        assert report.youngest_sequence is None
        assert report.tracks_scanned == 1  # position 0 only

    def test_unwrapped_log(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        for position in range(6):
            builder.add(position, 0, [bytes([position]) * SECTOR],
                        [position * 10])
        report = run_recovery(sim, log, data, usable)
        assert report.youngest_sequence == 5
        # Binary search: far fewer scans than the 19 usable tracks.
        assert report.tracks_scanned <= 7

    def test_wrapped_log(self, setup):
        """After wraparound every track holds records; the youngest is
        found via the single-descent rotated order."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        total = len(usable) + 7  # wraps 7 tracks past the start
        for index in range(total):
            builder.add(index % len(usable), 0,
                        [bytes([index % 256]) * SECTOR], [index])
        report = run_recovery(
            sim, log, data, usable,
            TrailConfig(recovery_writeback=False,
                        idle_reposition_interval_ms=0))
        assert report.youngest_sequence == total - 1

    def test_sequential_scan_agrees_with_binary_search(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        for position in range(11):
            builder.add(position, position % 3,
                        [bytes([position]) * SECTOR], [position])
        snapshot = log.store.snapshot()

        binary = run_recovery(
            sim, log, data, usable,
            TrailConfig(recovery_writeback=False,
                        idle_reposition_interval_ms=0))
        log.store.restore(snapshot)
        sequential = run_recovery(
            sim, log, data, usable,
            TrailConfig(binary_search_recovery=False,
                        recovery_writeback=False,
                        idle_reposition_interval_ms=0))
        assert binary.youngest_sequence == sequential.youngest_sequence
        assert binary.records_found == sequential.records_found
        assert sequential.tracks_scanned == len(usable)
        assert binary.tracks_scanned < sequential.tracks_scanned

    def test_stale_epoch_records_ignored(self, setup):
        sim, log, data, usable = setup
        old = LogBuilder(log, usable)
        for position in range(10):
            old.add(position, 0, [bytes([9]) * SECTOR], [1], epoch=EPOCH - 1)
        fresh = LogBuilder(log, usable)
        fresh.add(0, 4, [bytes([1]) * SECTOR], [42])
        report = run_recovery(sim, log, data, usable)
        assert report.youngest_sequence == 0
        assert report.records_found == 1


class TestRebuildAndReplay:
    def test_replay_restores_data_disk(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        expected = {}
        for position in range(5):
            payload = bytes([position + 1]) * SECTOR
            builder.add(position, 0, [payload], [position * 7])
            expected[position * 7] = payload
        report = run_recovery(sim, log, data, usable)
        assert report.records_found == 5
        assert report.sectors_replayed == 5
        assert report.writeback_performed
        for lba, payload in expected.items():
            assert data.store.read_sector(lba) == payload

    def test_replay_order_newest_wins(self, setup):
        """Two records target the same data sector: the final content is
        the younger record's (replay in sequence order)."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        builder.add(0, 0, [b"\x01" * SECTOR], [99])
        builder.add(1, 0, [b"\x02" * SECTOR], [99])
        run_recovery(sim, log, data, usable)
        assert data.store.read_sector(99) == b"\x02" * SECTOR

    def test_log_head_bounds_backward_scan(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        lbas = []
        for position in range(6):
            lbas.append(builder.add(position, 0,
                                    [bytes([position]) * SECTOR],
                                    [position]))
        # Youngest record claims records 3.. are the active portion.
        builder.add(6, 0, [b"\x07" * SECTOR], [60], log_head=lbas[3])
        report = run_recovery(sim, log, data, usable)
        assert report.records_found == 4  # records 3,4,5,6

    def test_disabled_log_head_traces_full_chain(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        lbas = [builder.add(position, 0, [bytes([position]) * SECTOR],
                            [position]) for position in range(6)]
        builder.add(6, 0, [b"\x07" * SECTOR], [60], log_head=lbas[3])
        report = run_recovery(
            sim, log, data, usable,
            TrailConfig(log_head_bound_enabled=False,
                        idle_reposition_interval_ms=0))
        assert report.records_found == 7

    def test_multi_sector_batch_replay(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        payloads = [bytes([index + 1]) * SECTOR for index in range(4)]
        # Contiguous data targets coalesce into one data-disk write.
        builder.add(0, 0, payloads, [200, 201, 202, 203])
        report = run_recovery(sim, log, data, usable)
        assert report.sectors_replayed == 4
        assert report.data_writes_issued == 1
        assert data.store.read(200, 4) == b"".join(payloads)

    def test_scattered_batch_multiple_writes(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        payloads = [bytes([index + 1]) * SECTOR for index in range(3)]
        builder.add(0, 0, payloads, [10, 500, 900])
        report = run_recovery(sim, log, data, usable)
        assert report.data_writes_issued == 3

    def test_unknown_data_disk_raises(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        header_lba = builder.add(0, 0, [b"\x01" * SECTOR], [5])
        # Rewrite with a bogus data_major.
        entries = (BatchEntry(data_lba=5, log_lba=header_lba + 1,
                              first_data_byte=1, data_major=9),)
        header = RecordHeader(epoch=EPOCH, sequence_id=0,
                              prev_sect=NULL_LBA, log_head=header_lba,
                              entries=entries)
        blob = b"".join(encode_record(header, [b"\x01" * SECTOR], SECTOR))
        log.store.write(header_lba, blob)
        with pytest.raises(RecoveryError):
            run_recovery(sim, log, data, usable)

    def test_writeback_skip_is_faster_and_defers_replay(self, setup):
        """Fig. 4(b): skipping write-back shortens recovery; the pending
        chain is still returned for later replay."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        for position in range(8):
            builder.add(position, 0, [bytes([position + 1]) * SECTOR],
                        [position * 11])
        snapshot = log.store.snapshot()

        with_wb = run_recovery(sim, log, data, usable)
        log.store.restore(snapshot)
        without_wb = run_recovery(
            sim, log, data, usable,
            TrailConfig(recovery_writeback=False,
                        idle_reposition_interval_ms=0))
        assert not without_wb.writeback_performed
        assert without_wb.total_ms < with_wb.total_ms
        assert len(without_wb.pending) == 8

    def test_inline_writeback_decodes_no_header_again(
            self, setup, monkeypatch):
        """The inline write-back replays the headers the chain walk
        decoded; only a deferred replay decodes them again."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        for position in range(8):
            builder.add(position, 0, [bytes([position + 1]) * SECTOR],
                        [position * 11])
        snapshot = log.store.snapshot()
        decodes = []
        decode = recovery_module.decode_record_header

        def counting_decode(*args, **kwargs):
            decodes.append(None)
            return decode(*args, **kwargs)

        monkeypatch.setattr(recovery_module, "decode_record_header",
                            counting_decode)
        counts = []
        for writeback in (True, False):
            log.store.restore(snapshot)
            del decodes[:]
            report = run_recovery(
                sim, log, data, usable,
                TrailConfig(recovery_writeback=writeback))
            assert report.records_found == 8
            counts.append(len(decodes))
        assert counts[0] == counts[1] > 0

    def test_torn_youngest_record_is_discarded(self, setup):
        """Regression (found by the crash-durability property test): a
        crash can persist the youngest record's header without its
        payload.  Replaying it would restore zeroed garbage over an
        older *acknowledged* version of the same data sector; recovery
        must detect the torn payload and step back."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        builder.add(0, 0, [b"a" * SECTOR], [250])  # acknowledged
        torn_lba = builder.add(1, 0, [b"c" * SECTOR], [250])
        # Tear the younger record: wipe its payload sector, keep header.
        log.store.erase(torn_lba + 1, 1)
        report = run_recovery(sim, log, data, usable)
        assert report.torn_records_dropped == 1
        assert report.youngest_sequence == 0
        assert data.store.read_sector(250) == b"a" * SECTOR

    def test_torn_only_record_recovers_empty(self, setup):
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        torn_lba = builder.add(0, 0, [b"x" * SECTOR], [99])
        log.store.erase(torn_lba + 1, 1)
        report = run_recovery(sim, log, data, usable)
        assert report.torn_records_dropped == 1
        assert report.records_found == 0
        assert data.store.read_sector(99) == bytes(SECTOR)

    def test_torn_youngest_with_a_corrupt_pending_predecessor(self, setup):
        """Regression: the torn youngest record's bound says its
        predecessor was pending, so a predecessor header that no longer
        decodes is damage to an acknowledged record, reported as such
        (as the rebuild walk reports it one hop later), never a silent
        end of the chain."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        first = builder.add(0, 0, [b"a" * SECTOR], [250])
        middle = builder.add(1, 0, [b"b" * SECTOR], [300])
        torn = builder.add(2, 0, [b"c" * SECTOR], [350], log_head=first)
        log.store.erase(torn + 1, 1)
        header = bytearray(log.store.read_sector(middle))
        header[40] ^= 0x01
        log.store.write_sector(middle, bytes(header))
        report = run_recovery(sim, log, data, usable)
        assert report.torn_records_dropped == 1
        assert report.records_found == 0
        assert report.corrupt_records == 1
        assert report.chain_broken
        assert report.dropped_sectors == [(0, 350)]

    def test_torn_youngest_heading_its_own_bound_ends_quietly(self, setup):
        """A torn record whose log_head is itself had nothing older
        pending: a predecessor that does not decode is not reported."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        builder.add(0, 0, [b"a" * SECTOR], [250])
        middle = builder.add(1, 0, [b"b" * SECTOR], [300])
        own = log.geometry.track_first_lba(usable[2])
        torn = builder.add(2, 0, [b"c" * SECTOR], [350], log_head=own)
        log.store.erase(torn + 1, 1)
        header = bytearray(log.store.read_sector(middle))
        header[40] ^= 0x01
        log.store.write_sector(middle, bytes(header))
        report = run_recovery(sim, log, data, usable)
        assert report.torn_records_dropped == 1
        assert report.records_found == 0
        assert report.corrupt_records == 0
        assert not report.chain_broken
        assert report.dropped_sectors == [(0, 350)]

    def test_deferred_replay_completes(self, setup):
        """A chain of multi-entry records handed to ``replay`` after a
        mount that skipped write-back leaves the data disk exactly as
        inline write-back does."""
        sim, log, data, usable = setup
        builder = LogBuilder(log, usable)
        for position in range(6):
            batch = position + 3  # 3..8 entries, the last one full
            payloads = [bytes([position * 8 + index + 1])
                        + bytes([200 - position]) * (SECTOR - 1)
                        for index in range(batch)]
            # A contiguous run overlapping the next record's, then
            # scattered sectors: replay order decides the result.
            targets = [position * 2 + (index if index < 4 else 3 * index)
                       for index in range(batch)]
            builder.add(position, position % 3, payloads, targets)
        log_image, blank = log.store.snapshot(), data.store.snapshot()
        inline = run_recovery(sim, log, data, usable)
        expected = dict(data.store.snapshot().items())
        newest = {}
        for _lba, header, payloads in builder.records:
            for entry, payload in zip(header.entries, payloads):
                newest[entry.data_lba] = payload
        assert expected == newest
        log.store.restore(log_image)
        data.store.restore(blank)

        config = TrailConfig(recovery_writeback=False,
                             idle_reposition_interval_ms=0)
        manager = RecoveryManager(sim, log, log.geometry, usable, EPOCH,
                                  {0: data}, config)
        report = drive_to_completion(sim, manager.run())
        assert report.records_found == inline.records_found == 6
        assert [record.header_lba for record in report.pending] == [
            header_lba for header_lba, _header, _payloads in builder.records]
        assert [dataclasses.replace(record.header, payload_crc=0,
                                    header_crc=0)
                for record in report.pending] == [
            header for _lba, header, _payloads in builder.records]
        assert data.store.snapshot() == blank
        drive_to_completion(sim, manager.replay(report.pending))
        assert dict(data.store.snapshot().items()) == expected
        assert report.sectors_replayed == inline.sectors_replayed == 33
        assert report.data_writes_issued == inline.data_writes_issued


class TestRightSizedChain:
    """A kept report's pending chain costs its header sectors' used
    bytes, not a decoded object graph per record."""

    def test_pending_chain_retains_at_most_400_bytes_per_record(self, sim):
        log = make_tiny_drive(sim, "log", cylinders=60)  # 120 tracks
        data = make_tiny_drive(sim, "data", cylinders=40, heads=4)
        usable = list(range(1, 120))
        builder = LogBuilder(log, usable)
        for position in range(100):
            builder.add(position, 0,
                        [bytes([position % 251 + 1]) * SECTOR] * 8,
                        [position * 8 + index for index in range(8)])
        config = TrailConfig(recovery_writeback=False,
                             idle_reposition_interval_ms=0)
        tracemalloc.start()
        try:
            report = run_recovery(sim, log, data, usable, config)
            gc.collect()
            before, _peak = tracemalloc.get_traced_memory()
            chain, report.pending = report.pending, []
            assert [len(record.header.entries) for record in chain] \
                == [8] * 100
            del chain
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert before - after <= 400 * 100
