"""On-disk structures of the Trail log: the self-describing format (§3.2).

Two structures live on the log disk:

* the global ``log_disk_header`` (signature, epoch, crash flag) stored
  on the first track and replicated elsewhere, followed by a geometry
  record so recovery code can interpret track boundaries; and
* one ``write record`` per physical log write: a one-sector record
  header followed by the payload sectors.

The format is *self-describing without bit stuffing*: every record
header sector begins with ``0xFF`` and every payload sector with
``0x00``; each payload sector's original first byte is displaced into
the header's ``first_data_byte[]`` array and restored on recovery.
Together with the signature, epoch, and monotonically increasing
sequence id, a scan can unambiguously identify record boundaries on a
raw track.

All integers are little-endian.  One header sector holds the fixed
fields plus up to :data:`~repro.core.config.MAX_TRAIL_BATCH` batch
entries of 11 bytes each.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import MAX_TRAIL_BATCH, TRAIL_SIGNATURE
from repro.disk.geometry import DiskGeometry, Zone
from repro.errors import LogFormatError, RecordChecksumError
from repro.units import SECTOR_SIZE, DataLba, LogLba

#: Marker byte opening every record-header sector.
HEADER_FIRST_BYTE = 0xFF
#: Marker byte forced onto every payload sector.
PAYLOAD_FIRST_BYTE = 0x00

#: Sentinel LBA meaning "no such sector" (prev_sect of the first record).
NULL_LBA = 0xFFFFFFFF

_SIG_LEN = len(TRAIL_SIGNATURE)

# first_byte, signature, epoch, sequence_id, prev_sect, log_head,
# payload_crc, header_crc, batch_size.  Two CRCs extend the paper's
# format (which assumes the only failure is power loss):
#
# * ``payload_crc`` covers the *masked* payload sectors exactly as they
#   lie on the platter: a crash can tear a record (header sector
#   persisted, payload sectors not — only ever the youngest record,
#   because log writes are strictly sequential), and recovery must
#   detect and discard such a record rather than replay garbage.
# * ``header_crc`` covers the header sector itself (with this field
#   zeroed), so a silent bit flip anywhere in the header — a batch
#   entry's target LBA, the back pointer, the displaced first byte —
#   turns the sector into a non-record instead of redirecting replay
#   to the wrong address.
_FIXED_FMT = f"<B{_SIG_LEN}sIIIIIIH"
_FIXED_SIZE = struct.calcsize(_FIXED_FMT)
#: Byte offset of ``header_crc`` within the header sector (the fields
#: before it: first_byte, signature, and five 4-byte integers).
_HEADER_CRC_OFFSET = struct.calcsize(f"<B{_SIG_LEN}sIIIII")

# first_data_byte, log_lba, data_lba, data_major, data_minor
_ENTRY_FMT = "<BIIBB"
_ENTRY_SIZE = struct.calcsize(_ENTRY_FMT)

#: Precompiled structs and the one-byte payload marker, hoisted off the
#: per-record encode path.
_FIXED_STRUCT = struct.Struct(_FIXED_FMT)
_ENTRY_STRUCT = struct.Struct(_ENTRY_FMT)
_CRC_STRUCT = struct.Struct("<I")
_PAYLOAD_PREFIX = bytes([PAYLOAD_FIRST_BYTE])
#: ``_ENTRY_TABLES[n]`` packs a whole table of ``n`` entries in one call.
_ENTRY_TABLES = tuple(struct.Struct("<" + _ENTRY_FMT[1:] * count)
                      for count in range(MAX_TRAIL_BATCH + 1))
#: What every record-header sector opens with: marker, then signature.
_HEADER_PREFIX = bytes([HEADER_FIRST_BYTE]) + TRAIL_SIGNATURE

assert _FIXED_SIZE + MAX_TRAIL_BATCH * _ENTRY_SIZE <= SECTOR_SIZE, (
    "record header must fit one sector")

# signature, magic, epoch, crash_var, crc32 of the preceding fields
_DISK_HEADER_FMT = f"<{_SIG_LEN}sIIiI"
_DISK_HEADER_BODY_FMT = f"<{_SIG_LEN}sIIi"
_DISK_HEADER_MAGIC = 0x7452_0001  # 'tR' + format version 1

# heads, sector_size, zone_count then per zone: cylinder_count, spt
_GEOMETRY_FIXED_FMT = "<HHH"
_GEOMETRY_ZONE_FMT = "<II"


class _EntryFields(NamedTuple):
    #: The payload's original first byte, displaced by the 0x00 marker.
    first_data_byte: int
    #: LBA on the log disk where the payload sector was written.
    log_lba: LogLba
    #: Target LBA on the data disk this sector ultimately belongs to.
    data_lba: DataLba
    #: Major/minor device number of the target data disk.
    data_major: int = 0
    data_minor: int = 0


class BatchEntry(_EntryFields):
    """One logged sector inside a write record, in on-disk field order.

    A named tuple, so decoding a header builds each entry in C
    (``BatchEntry._make`` skips this range check: the decoder's ``B``
    field cannot hold more than a byte).
    """

    __slots__ = ()

    def __new__(cls, first_data_byte: int, log_lba: LogLba,
                data_lba: DataLba, data_major: int = 0,
                data_minor: int = 0) -> "BatchEntry":
        if not 0 <= first_data_byte <= 0xFF:
            raise LogFormatError(
                f"first_data_byte out of range: {first_data_byte}")
        return super().__new__(
            cls, first_data_byte=first_data_byte, log_lba=log_lba,
            data_lba=data_lba, data_major=data_major, data_minor=data_minor)


@dataclass(frozen=True)
class RecordHeader:
    """Decoded contents of a record-header sector."""

    epoch: int
    sequence_id: int
    #: Log-disk LBA of the previous record's header (NULL_LBA if none).
    prev_sect: LogLba
    #: Log-disk LBA of the oldest uncommitted record's header at the
    #: time this record was written — the recovery scan bound (§3.3).
    log_head: LogLba
    entries: Tuple[BatchEntry, ...]
    #: CRC-32 of the masked payload sectors as written (torn-record
    #: detection; filled in by :func:`encode_record`).
    payload_crc: int = 0
    #: CRC-32 of the header sector with this field zeroed (silent
    #: header-corruption detection; filled in by :func:`encode_record`).
    header_crc: int = 0

    @property
    def batch_size(self) -> int:
        """Number of logged sectors in this record."""
        return len(self.entries)


@dataclass(frozen=True)
class LogDiskHeader:
    """Decoded contents of the global log-disk header sector."""

    epoch: int
    #: 0 while mounted (dirty); 1 after a clean shutdown (§3.3).
    crash_var: int


def encode_record_stream(
    epoch: int,
    sequence_id: int,
    prev_sect: int,
    log_head: int,
    entries: Sequence[Tuple[int, int, int, int, int]],
    masked_payload: "bytearray",
    sector_size: int = SECTOR_SIZE,
) -> bytes:
    """Serialize a write record whose payload is already masked.

    ``masked_payload`` holds the batch's payload sectors contiguously
    with the 0x00 marker already in each sector's first byte (the
    displaced originals live in ``entries[i][0]``).  Returns the whole
    record — header sector plus payload — as one ``bytes`` blob.  The
    log driver's emit path builds ``masked_payload`` with bulk slice
    assignments and calls this directly, so the hot write path never
    materializes :class:`BatchEntry` / :class:`RecordHeader` objects.
    """
    if len(masked_payload) != len(entries) * sector_size:
        raise LogFormatError(
            f"{len(entries)} entries but {len(masked_payload)} payload "
            "bytes")
    if len(entries) > MAX_TRAIL_BATCH:
        raise LogFormatError(
            f"batch of {len(entries)} exceeds MAX_TRAIL_BATCH="
            f"{MAX_TRAIL_BATCH}")
    # The header sector is packed in place: the zero-filled allocation
    # supplies its trailing padding, and the fixed fields and the whole
    # entry table are one precompiled pack each.
    packed = bytearray(sector_size)
    _FIXED_STRUCT.pack_into(
        packed, 0, HEADER_FIRST_BYTE, TRAIL_SIGNATURE, epoch, sequence_id,
        prev_sect, log_head, zlib.crc32(masked_payload), 0, len(entries))
    _ENTRY_TABLES[len(entries)].pack_into(
        packed, _FIXED_SIZE, *chain.from_iterable(entries))
    _CRC_STRUCT.pack_into(packed, _HEADER_CRC_OFFSET, zlib.crc32(packed))
    packed += masked_payload
    return bytes(packed)


def encode_record(
    header: RecordHeader,
    payload_sectors: Sequence[bytes],
    sector_size: int = SECTOR_SIZE,
) -> List[bytes]:
    """Serialize a write record into on-disk sectors.

    ``payload_sectors[i]`` is the *original* content of the sector
    described by ``header.entries[i]``; its first byte must equal that
    entry's ``first_data_byte`` and is replaced by the 0x00 marker in
    the returned encoding.  Returns ``1 + batch_size`` sectors: the
    header sector followed by the masked payloads, exactly as
    :func:`encode_record_stream` lays them out.
    """
    entries = header.entries
    if len(payload_sectors) != len(entries):
        raise LogFormatError(
            f"{len(entries)} entries but {len(payload_sectors)} "
            "payload sectors")
    masked = bytearray()
    for entry, payload in zip(entries, payload_sectors):
        if len(payload) != sector_size:
            raise LogFormatError(
                f"payload sector must be {sector_size} bytes, got "
                f"{len(payload)}")
        if payload[0] != entry.first_data_byte:
            raise LogFormatError(
                "entry.first_data_byte does not match the payload's "
                f"first byte ({entry.first_data_byte} != {payload[0]})")
        masked += _PAYLOAD_PREFIX + payload[1:]
    blob = encode_record_stream(
        header.epoch, header.sequence_id, header.prev_sect,
        header.log_head, entries, masked, sector_size)
    return [blob[offset:offset + sector_size]
            for offset in range(0, len(blob), sector_size)]


def payload_crc32(masked_payload: bytes) -> int:
    """CRC-32 over a record's contiguous on-platter (masked) payload."""
    return zlib.crc32(masked_payload)


def decode_record_header(
    sector: bytes,
    expected_epoch: Optional[int] = None,
) -> RecordHeader:
    """Parse and validate a record-header sector.

    Raises :class:`LogFormatError` if the sector is not a valid Trail
    record header (wrong marker byte, signature, or an epoch mismatch
    when ``expected_epoch`` is given) — the recovery scanner relies on
    this to reject payload sectors and stale garbage.  A sector that
    opens like a header but fails the header CRC raises the subclass
    :class:`RecordChecksumError`: that is damage, not empty space.
    """
    if len(sector) < _FIXED_SIZE:
        raise LogFormatError(f"sector too short: {len(sector)} bytes")
    (first_byte, signature, epoch, sequence_id, prev_sect, log_head,
     payload_crc, header_crc, batch_size) = _FIXED_STRUCT.unpack_from(sector)
    if first_byte != HEADER_FIRST_BYTE:
        raise LogFormatError(
            f"not a record header: first byte {first_byte:#04x}")
    if signature != TRAIL_SIGNATURE:
        raise LogFormatError(f"bad record signature: {signature!r}")
    zeroed = bytearray(sector)
    zeroed[_HEADER_CRC_OFFSET:_HEADER_CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
    if zlib.crc32(zeroed) != header_crc:
        raise RecordChecksumError(
            f"record header checksum mismatch (sequence {sequence_id})")
    if batch_size > MAX_TRAIL_BATCH:
        raise LogFormatError(f"batch_size {batch_size} exceeds maximum")
    if expected_epoch is not None and epoch != expected_epoch:
        raise LogFormatError(
            f"record epoch {epoch} != expected {expected_epoch}")
    if len(sector) < _FIXED_SIZE + batch_size * _ENTRY_SIZE:
        raise LogFormatError("sector too short for declared batch size")

    table = sector[_FIXED_SIZE:_FIXED_SIZE + batch_size * _ENTRY_SIZE]
    entries = tuple(map(BatchEntry._make, _ENTRY_STRUCT.iter_unpack(table)))
    return RecordHeader(epoch=epoch, sequence_id=sequence_id,
                        prev_sect=LogLba(prev_sect),
                        log_head=LogLba(log_head),
                        entries=entries, payload_crc=payload_crc,
                        header_crc=header_crc)


def record_header_offsets(image: bytes,
                          sector_size: int = SECTOR_SIZE) -> List[int]:
    """Sector-aligned offsets of ``image`` that open like a record header.

    The cheap predicate of a track scan: every other sector fails the
    first two checks of :func:`decode_record_header`, and every offset
    returned is only a candidate that still has to pass all of them.
    """
    return [index * sector_size
            for index, marker in enumerate(image[::sector_size])
            if marker == HEADER_FIRST_BYTE
            and image.startswith(_HEADER_PREFIX, index * sector_size)]


def restore_payload(entries: Sequence[BatchEntry],
                    masked_payload: bytes) -> bytes:
    """Undo the 0x00 first-byte masking of a record's contiguous payload
    image (one sector per entry, as read back), in one buffer."""
    if not (entries and masked_payload) or len(masked_payload) % len(entries):
        raise LogFormatError(
            f"{len(entries)} entries but {len(masked_payload)} payload bytes")
    restored = bytearray(masked_payload)
    sector_size = len(restored) // len(entries)
    unmarked = restored[::sector_size].lstrip(_PAYLOAD_PREFIX)
    if unmarked:
        raise LogFormatError(
            f"payload sector does not start with the 0x00 marker: "
            f"{unmarked[0]:#04x}")
    restored[::sector_size] = bytes(
        [entry.first_data_byte for entry in entries])
    return bytes(restored)


# ----------------------------------------------------------------------
# Global log-disk header and geometry record


def encode_disk_header(
    header: LogDiskHeader, sector_size: int = SECTOR_SIZE,
) -> bytes:
    """Serialize the global log-disk header into one sector."""
    body = struct.pack(_DISK_HEADER_BODY_FMT, TRAIL_SIGNATURE,
                       _DISK_HEADER_MAGIC, header.epoch, header.crash_var)
    packed = body + struct.pack("<I", zlib.crc32(body))
    return packed + bytes(sector_size - len(packed))


def decode_disk_header(sector: bytes) -> LogDiskHeader:
    """Parse the global log-disk header; raises if not a Trail disk.

    The trailing CRC32 turns a flipped bit in ``epoch`` or
    ``crash_var`` — which would otherwise silently skip recovery or
    scan the wrong epoch — into a loud :class:`LogFormatError`.
    """
    if len(sector) < struct.calcsize(_DISK_HEADER_FMT):
        raise LogFormatError("disk-header sector too short")
    signature, magic, epoch, crash_var, stored_crc = struct.unpack_from(
        _DISK_HEADER_FMT, sector)
    if signature != TRAIL_SIGNATURE:
        raise LogFormatError(
            f"disk signature {signature!r} is not a Trail log disk")
    if magic != _DISK_HEADER_MAGIC:
        raise LogFormatError(f"unknown format version magic {magic:#x}")
    body_size = struct.calcsize(_DISK_HEADER_BODY_FMT)
    if stored_crc != zlib.crc32(sector[:body_size]):
        raise LogFormatError("disk-header checksum mismatch")
    return LogDiskHeader(epoch=epoch, crash_var=crash_var)


def encode_geometry(
    geometry: DiskGeometry, sector_size: int = SECTOR_SIZE,
) -> bytes:
    """Serialize the physical-geometry record stored next to the header.

    §4.1: "The formatting tool writes the log disk's physical geometry
    data ... to the dedicated tracks"; §3.1 needs it back at boot for
    the prediction formula.
    """
    packed = bytearray(struct.pack(
        _GEOMETRY_FIXED_FMT, geometry.heads, geometry.sector_size,
        len(geometry.zones)))
    for zone in geometry.zones:
        packed += struct.pack(_GEOMETRY_ZONE_FMT, zone.cylinder_count,
                              zone.sectors_per_track)
    if len(packed) > sector_size:
        raise LogFormatError(
            f"geometry with {len(geometry.zones)} zones does not fit one "
            "sector")
    return bytes(packed) + bytes(sector_size - len(packed))


def decode_geometry(sector: bytes) -> DiskGeometry:
    """Reconstruct a :class:`DiskGeometry` from its on-disk record."""
    if len(sector) < struct.calcsize(_GEOMETRY_FIXED_FMT):
        raise LogFormatError("geometry sector too short")
    heads, sector_size, zone_count = struct.unpack_from(
        _GEOMETRY_FIXED_FMT, sector)
    zones = []
    offset = struct.calcsize(_GEOMETRY_FIXED_FMT)
    for _ in range(zone_count):
        if offset + struct.calcsize(_GEOMETRY_ZONE_FMT) > len(sector):
            raise LogFormatError("geometry sector truncated")
        cylinder_count, spt = struct.unpack_from(
            _GEOMETRY_ZONE_FMT, sector, offset)
        offset += struct.calcsize(_GEOMETRY_ZONE_FMT)
        zones.append(Zone(cylinder_count=cylinder_count,
                          sectors_per_track=spt))
    if not zones:
        raise LogFormatError("geometry record has no zones")
    return DiskGeometry(heads=heads, zones=zones, sector_size=sector_size)
