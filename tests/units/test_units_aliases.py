"""The ``repro.units`` dimension aliases at runtime.

The ``LogLba`` / ``DataLba`` NewType wrappers must round-trip through
the on-disk record format unchanged — the wrapper exists for checkers,
never for the platter.
"""

from repro.core.format import (
    NULL_LBA, BatchEntry, RecordHeader, decode_record_header,
    encode_record)
from repro.units import SECTOR_SIZE, Bytes, DataLba, LogLba, sectors_for


def test_newtype_wrappers_are_plain_ints():
    lba = LogLba(7)
    assert lba == 7
    assert isinstance(lba, int)
    assert LogLba(7) == DataLba(7)  # runtime cannot tell them apart


def test_lbas_round_trip_through_the_record_format():
    payload = bytes([0xAB]) + bytes(SECTOR_SIZE - 1)
    header = RecordHeader(
        epoch=3, sequence_id=41,
        prev_sect=LogLba(NULL_LBA), log_head=LogLba(160),
        entries=(BatchEntry(data_lba=DataLba(4096), log_lba=LogLba(161),
                            first_data_byte=0xAB),))
    sectors = encode_record(header, [payload])
    decoded = decode_record_header(sectors[0])
    entry = decoded.entries[0]
    assert entry.data_lba == DataLba(4096)
    assert entry.log_lba == LogLba(161)
    assert decoded.prev_sect == LogLba(NULL_LBA)
    assert decoded.log_head == LogLba(160)


def test_sectors_for_is_exact_on_boundaries():
    nbytes: Bytes = 3 * SECTOR_SIZE
    assert sectors_for(nbytes) == 3
    assert sectors_for(nbytes + 1) == 4
    assert sectors_for(0) == 0
