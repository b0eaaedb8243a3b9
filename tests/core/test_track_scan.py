"""The header-first track scan finds what decoding every sector finds.

``RecoveryManager._scan_position`` used to run the full
``decode_record_header`` on every sector of a scanned track;  it now
decodes only the sectors ``record_header_offsets`` names.  The
every-sector decode stays here as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TRAIL_SIGNATURE
from repro.core.format import (
    BatchEntry, HEADER_FIRST_BYTE, NULL_LBA, RecordHeader,
    decode_record_header, encode_record, record_header_offsets)
from repro.core.recovery import (
    LocatedRecord, RecoveryReport, _youngest_in_track)
from repro.errors import LogFormatError, RecordChecksumError

SECTOR = 512
EPOCH = 5
FIRST_LBA = 4000
PREFIX = bytes([HEADER_FIRST_BYTE]) + TRAIL_SIGNATURE


def header_sector(epoch, sequence_id, batch):
    payloads = [bytes([index + 1]) * SECTOR for index in range(batch)]
    entries = tuple(
        BatchEntry(data_lba=100 + index, log_lba=FIRST_LBA + 1 + index,
                   first_data_byte=payload[0])
        for index, payload in enumerate(payloads))
    header = RecordHeader(epoch=epoch, sequence_id=sequence_id,
                          prev_sect=NULL_LBA, log_head=FIRST_LBA,
                          entries=entries)
    return encode_record(header, payloads)[0]


@st.composite
def sectors(draw):
    """One sector of a generated track image."""
    kind = draw(st.sampled_from(
        ["blank", "payload", "payload-with-prefix", "header", "stale",
         "crc-damaged", "prefix-then-garbage", "marker-only"]))
    if kind == "blank":
        return bytes(SECTOR)
    if kind == "payload":
        return b"\x00" + draw(st.binary(min_size=SECTOR - 1,
                                        max_size=SECTOR - 1))
    if kind == "payload-with-prefix":
        # Marker + signature inside the payload, never sector-aligned.
        at = draw(st.integers(1, SECTOR - len(PREFIX)))
        body = bytearray(b"\x00" + draw(st.binary(min_size=SECTOR - 1,
                                                   max_size=SECTOR - 1)))
        body[at:at + len(PREFIX)] = PREFIX
        return bytes(body)
    if kind in ("header", "stale", "crc-damaged"):
        epoch = EPOCH if kind != "stale" else draw(st.integers(0, EPOCH - 1))
        sector = header_sector(epoch, draw(st.integers(0, 40)),
                               draw(st.integers(0, 4)))
        if kind == "crc-damaged":
            damaged = bytearray(sector)
            damaged[draw(st.integers(len(PREFIX), 80))] ^= 0x04
            sector = bytes(damaged)
        return sector
    if kind == "prefix-then-garbage":
        return PREFIX + draw(st.binary(min_size=SECTOR - len(PREFIX),
                                       max_size=SECTOR - len(PREFIX)))
    return bytes([HEADER_FIRST_BYTE]) + draw(
        st.binary(min_size=SECTOR - 1, max_size=SECTOR - 1))


def decode_every_sector(image):
    """The scan as it was: full decode of each sector, youngest wins;
    plus whether any sector was a header that failed its CRC."""
    youngest, damaged = None, False
    for index in range(len(image) // SECTOR):
        try:
            header = decode_record_header(
                image[index * SECTOR:(index + 1) * SECTOR],
                expected_epoch=EPOCH)
        except RecordChecksumError:
            damaged = True
            continue
        except LogFormatError:
            continue
        if (youngest is None
                or header.sequence_id > youngest.header.sequence_id):
            youngest = LocatedRecord(header_lba=FIRST_LBA + index,
                                     header=header)
    return youngest, damaged


@settings(max_examples=200)
@given(st.lists(sectors(), min_size=0, max_size=24))
def test_header_first_scan_equals_decoding_every_sector(track):
    image = b"".join(track)
    report = RecoveryReport()
    youngest = _youngest_in_track(image, FIRST_LBA, SECTOR, EPOCH, report)
    assert (youngest, report.chain_broken) == decode_every_sector(image)


@given(st.lists(sectors(), min_size=0, max_size=24))
def test_offsets_are_exactly_the_aligned_prefixes(track):
    image = b"".join(track)
    assert record_header_offsets(image, SECTOR) == [
        index * SECTOR for index, sector in enumerate(track)
        if sector.startswith(PREFIX)]


def test_every_skipped_sector_fails_the_first_two_decode_checks():
    """What the scan skips is what the decode rejects before its CRC."""
    not_marker = bytes([0x7F]) + TRAIL_SIGNATURE + bytes(SECTOR - 9)
    not_signature = bytes([HEADER_FIRST_BYTE]) + b"TRAILLOX" \
        + bytes(SECTOR - 9)
    for sector in (bytes(SECTOR), not_marker, not_signature):
        assert record_header_offsets(sector, SECTOR) == []
        with pytest.raises(LogFormatError, match="first byte|signature"):
            decode_record_header(sector)
