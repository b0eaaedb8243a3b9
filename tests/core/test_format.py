"""Unit and property tests for the self-describing log format."""

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.config import MAX_TRAIL_BATCH, TRAIL_SIGNATURE
from repro.core.format import (
    BatchEntry, HEADER_FIRST_BYTE, LogDiskHeader, NULL_LBA,
    PAYLOAD_FIRST_BYTE, RecordHeader, decode_disk_header,
    decode_geometry, decode_record_header, encode_disk_header,
    encode_geometry, encode_record, encode_record_stream,
    payload_crc32, record_header_offsets, restore_payload)
from repro.disk.geometry import DiskGeometry, Zone
from repro.errors import LogFormatError


def make_record(payloads, epoch=1, sequence_id=7, prev_sect=NULL_LBA,
                log_head=100, base_log_lba=101, base_data_lba=5000):
    entries = tuple(
        BatchEntry(data_lba=base_data_lba + index,
                   log_lba=base_log_lba + index,
                   first_data_byte=payload[0],
                   data_major=1, data_minor=0)
        for index, payload in enumerate(payloads))
    return RecordHeader(epoch=epoch, sequence_id=sequence_id,
                        prev_sect=prev_sect, log_head=log_head,
                        entries=entries)


class TestRecordRoundTrip:
    def test_single_sector(self):
        payload = bytes([0xAB]) + (bytes(range(256)) * 2)[:511]
        header = make_record([payload])
        sectors = encode_record(header, [payload])
        assert len(sectors) == 2
        decoded = decode_record_header(sectors[0])
        assert decoded.payload_crc == payload_crc32(b"".join(sectors[1:]))
        assert decoded == dataclasses.replace(
            header, payload_crc=decoded.payload_crc,
            header_crc=decoded.header_crc)
        assert restore_payload(decoded.entries, sectors[1]) == payload

    def test_marker_bytes(self):
        payload = bytes([0xFF]) + bytes(511)  # payload starting with 0xFF!
        header = make_record([payload])
        sectors = encode_record(header, [payload])
        assert sectors[0][0] == HEADER_FIRST_BYTE
        assert sectors[1][0] == PAYLOAD_FIRST_BYTE
        # The original 0xFF first byte survives the round trip.
        decoded = decode_record_header(sectors[0])
        assert restore_payload(decoded.entries, sectors[1]) == payload

    def test_payload_sector_never_parses_as_header(self):
        # Even adversarial payloads cannot be mistaken for a header,
        # because the encoder forces their first byte to 0x00.
        fake_header = encode_record(make_record([bytes(512)]),
                                    [bytes(512)])[0]
        payload = fake_header  # payload that *is* a valid header image
        header = make_record([payload])
        sectors = encode_record(header, [payload])
        assert record_header_offsets(b"".join(sectors)) == [0]
        with pytest.raises(LogFormatError):
            decode_record_header(sectors[1])

    def test_batch_of_max_size(self):
        payloads = [bytes([index]) + bytes(511)
                    for index in range(MAX_TRAIL_BATCH)]
        header = make_record(payloads)
        sectors = encode_record(header, payloads)
        decoded = decode_record_header(sectors[0])
        assert decoded.batch_size == MAX_TRAIL_BATCH
        assert restore_payload(decoded.entries, b"".join(sectors[1:])) \
            == b"".join(payloads)

    def test_batch_too_large_rejected(self):
        payloads = [bytes(512)] * (MAX_TRAIL_BATCH + 1)
        with pytest.raises(LogFormatError, match="MAX_TRAIL_BATCH"):
            encode_record(make_record(payloads), payloads)

    def test_entry_payload_count_mismatch(self):
        header = make_record([bytes(512), bytes(512)])
        with pytest.raises(LogFormatError, match="payload sectors"):
            encode_record(header, [bytes(512)])

    def test_wrong_payload_size(self):
        header = make_record([bytes(512)])
        with pytest.raises(LogFormatError, match="must be 512 bytes"):
            encode_record(header, [bytes(100)])

    def test_first_byte_mismatch_rejected(self):
        payload = bytes([5]) + bytes(511)
        entries = (BatchEntry(data_lba=0, log_lba=1, first_data_byte=99),)
        header = RecordHeader(epoch=0, sequence_id=0, prev_sect=NULL_LBA,
                              log_head=0, entries=entries)
        with pytest.raises(LogFormatError, match="first byte"):
            encode_record(header, [payload])

    @given(st.lists(st.binary(min_size=512, max_size=512),
                    min_size=1, max_size=10),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, payloads, epoch, sequence_id):
        header = make_record(payloads, epoch=epoch,
                             sequence_id=sequence_id)
        sectors = encode_record(header, payloads)
        decoded = decode_record_header(sectors[0])
        assert decoded.epoch == epoch
        assert decoded.sequence_id == sequence_id
        assert decoded.batch_size == len(payloads)
        assert restore_payload(decoded.entries, b"".join(sectors[1:])) \
            == b"".join(payloads)


class TestHeaderValidation:
    def test_garbage_rejected(self):
        with pytest.raises(LogFormatError):
            decode_record_header(bytes(512))

    def test_too_short_rejected(self):
        with pytest.raises(LogFormatError):
            decode_record_header(b"\xff")

    def test_bad_signature_rejected(self):
        sectors = encode_record(make_record([bytes(512)]), [bytes(512)])
        corrupted = bytearray(sectors[0])
        corrupted[3] ^= 0xFF
        with pytest.raises(LogFormatError):
            decode_record_header(bytes(corrupted))

    def test_epoch_check(self):
        sectors = encode_record(make_record([bytes(512)], epoch=3),
                                [bytes(512)])
        assert decode_record_header(sectors[0], expected_epoch=3).epoch == 3
        with pytest.raises(LogFormatError):
            decode_record_header(sectors[0], expected_epoch=4)

    def test_restore_payload_requires_marker(self):
        entry = BatchEntry(data_lba=0, log_lba=0, first_data_byte=7)
        with pytest.raises(LogFormatError):
            restore_payload([entry], bytes([1]) + bytes(511))
        with pytest.raises(LogFormatError):
            restore_payload([entry], b"")
        with pytest.raises(LogFormatError):
            restore_payload([], bytes(512))
        with pytest.raises(LogFormatError):  # not one sector per entry
            restore_payload([entry, entry], bytes(1023))
        with pytest.raises(LogFormatError):  # second sector unmarked
            restore_payload([entry, entry], bytes(512) + bytes([9]) * 512)

    def test_invalid_first_data_byte(self):
        with pytest.raises(LogFormatError):
            BatchEntry(data_lba=0, log_lba=0, first_data_byte=300)


def reference_header_sector(epoch, sequence_id, prev_sect, log_head,
                            payload_crc, entries, sector_size=512):
    """The record-header sector as §3.2's layout spells it out, packed
    one field group and one entry at a time: independent of the
    encoder's precompiled whole-table structs."""
    fixed_fmt = f"<B{len(TRAIL_SIGNATURE)}sIIIIIIH"
    fixed = struct.pack(fixed_fmt, 0xFF, TRAIL_SIGNATURE, epoch,
                        sequence_id, prev_sect, log_head, payload_crc, 0,
                        len(entries))
    table = b"".join(struct.pack("<BIIBB", *entry) for entry in entries)
    sector = bytearray(fixed + table)
    sector += bytes(sector_size - len(sector))
    crc_at = struct.calcsize(f"<B{len(TRAIL_SIGNATURE)}sIIIII")
    sector[crc_at:crc_at + 4] = struct.pack("<I", zlib.crc32(sector))
    return bytes(sector)


def batch_payloads(count, seed=0):
    return [bytes([(seed + 37 * index) % 256])
            + bytes((seed + index + offset) % 256 for offset in range(511))
            for index in range(count)]


class TestHeaderReference:
    """Both encoders against a header packed entry by entry with
    ``struct.pack("<BIIBB", ...)``, for every batch size."""

    @pytest.mark.parametrize("count", range(1, MAX_TRAIL_BATCH + 1))
    def test_every_batch_size(self, count):
        payloads = batch_payloads(count, seed=count)
        header = make_record(payloads, epoch=count, sequence_id=2**32 - count,
                             prev_sect=4096 + count, log_head=17)
        entries = [tuple(entry) for entry in header.entries]
        masked = b"".join(bytes([PAYLOAD_FIRST_BYTE]) + payload[1:]
                          for payload in payloads)
        expected = reference_header_sector(
            header.epoch, header.sequence_id, header.prev_sect,
            header.log_head, zlib.crc32(masked), entries)
        stream = encode_record_stream(
            header.epoch, header.sequence_id, header.prev_sect,
            header.log_head, entries, bytearray(masked))
        assert stream == expected + masked
        sectors = encode_record(header, payloads)
        assert sectors[0] == expected
        assert b"".join(sectors[1:]) == masked

    @given(
        count=st.integers(1, MAX_TRAIL_BATCH),
        seed=st.integers(0, 255),
        epoch=st.integers(min_value=0, max_value=2**32 - 1),
        sequence_id=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_decode_round_trip(self, count, seed, epoch, sequence_id):
        payloads = batch_payloads(count, seed)
        header = make_record(payloads, epoch=epoch, sequence_id=sequence_id)
        decoded = decode_record_header(encode_record(header, payloads)[0])
        assert decoded.entries == header.entries
        assert all(type(entry) is BatchEntry for entry in decoded.entries)
        for entry, payload, index in zip(decoded.entries, payloads,
                                         range(count)):
            assert entry.first_data_byte == payload[0]
            assert entry.log_lba == 101 + index
            assert entry.data_lba == 5000 + index
            assert (entry.data_major, entry.data_minor) == (1, 0)
        assert len(set(decoded.entries)) == count
        assert hash(decoded.entries) == hash(header.entries)

    def test_entry_is_the_on_disk_field_order(self):
        entry = BatchEntry(data_lba=7, log_lba=9, first_data_byte=0xAB,
                           data_major=3)
        assert tuple(entry) == (0xAB, 9, 7, 3, 0)
        assert struct.pack("<BIIBB", *entry) == struct.pack(
            "<BIIBB", 0xAB, 9, 7, 3, 0)
        for bad in (-1, 256, 300):
            with pytest.raises(LogFormatError):
                BatchEntry(data_lba=0, log_lba=0, first_data_byte=bad)


class TestDiskHeader:
    def test_round_trip(self):
        header = LogDiskHeader(epoch=42, crash_var=1)
        decoded = decode_disk_header(encode_disk_header(header))
        assert decoded == header

    def test_not_a_trail_disk(self):
        with pytest.raises(LogFormatError):
            decode_disk_header(bytes(512))

    def test_short_sector(self):
        with pytest.raises(LogFormatError):
            decode_disk_header(b"TR")

    def test_flipped_crash_var_bit_is_detected(self):
        # Without the header CRC this flip would silently turn a dirty
        # disk (crash_var=0) into a "clean" one and skip recovery.
        sector = bytearray(
            encode_disk_header(LogDiskHeader(epoch=3, crash_var=0)))
        offset = len(TRAIL_SIGNATURE) + 8  # crash_var field
        sector[offset] ^= 0x01
        with pytest.raises(LogFormatError, match="checksum"):
            decode_disk_header(bytes(sector))


class TestGeometryRecord:
    def test_round_trip(self):
        geometry = DiskGeometry(heads=4, zones=[
            Zone(cylinder_count=10, sectors_per_track=20),
            Zone(cylinder_count=5, sectors_per_track=12),
        ])
        decoded = decode_geometry(encode_geometry(geometry))
        assert decoded.heads == 4
        assert decoded.total_sectors == geometry.total_sectors
        assert [(z.cylinder_count, z.sectors_per_track)
                for z in decoded.zones] == [(10, 20), (5, 12)]

    def test_garbage_geometry(self):
        with pytest.raises(LogFormatError):
            decode_geometry(bytes(2))
        with pytest.raises(LogFormatError):
            decode_geometry(bytes(512))  # zone_count 0


class TestStreamEncoderByteCompat:
    """encode_record_stream (the one-copy emit path, fed pre-masked
    payload bytes) must produce exactly the concatenation of what
    encode_record returns for the original payload sectors."""

    @given(
        payloads=st.lists(
            st.binary(min_size=512, max_size=512), min_size=1, max_size=6),
        epoch=st.integers(min_value=0, max_value=2**32 - 1),
        sequence_id=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_record_encoder(self, payloads, epoch, sequence_id):
        header = make_record(payloads, epoch=epoch, sequence_id=sequence_id)
        masked = bytearray()
        for payload in payloads:
            masked += bytes([PAYLOAD_FIRST_BYTE]) + payload[1:]
        assert encode_record_stream(
            epoch, sequence_id, header.prev_sect, header.log_head,
            header.entries, masked) == b"".join(
                encode_record(header, payloads))

    def test_validation(self):
        with pytest.raises(LogFormatError, match="payload"):
            encode_record_stream(1, 1, NULL_LBA, 0, [], bytearray(512))
        with pytest.raises(LogFormatError, match="MAX_TRAIL_BATCH"):
            encode_record_stream(
                1, 1, NULL_LBA, 0,
                [(0x42, index, index, 0, 0)
                 for index in range(MAX_TRAIL_BATCH + 1)],
                bytearray(512 * (MAX_TRAIL_BATCH + 1)))
