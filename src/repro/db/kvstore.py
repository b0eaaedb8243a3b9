"""A durable key-value store: the smallest real application of the
stack, with WAL-based crash recovery.

Unlike the TPC-C engine (which models I/O timing and keeps domain
state in memory), the KV store writes *real bytes*: every ``put`` is
serialized into the write-ahead log, forced according to the commit
policy, and recoverable by scanning the log region from the block
device after a crash.  On a Trail-backed device the force costs
~transfer time; on a standard disk it pays seek + rotation — the
paper's argument, usable as a library.

Log format (little-endian), one record per put/delete::

    magic u32 | lsn-check u32 | op u8 | klen u16 | vlen u32 | key | value | crc32 u32

Recovery replays records in LSN order and stops at the first hole or
checksum mismatch (torn tail).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Tuple

from repro.baselines.group_commit import SyncCommitPolicy
from repro.blockdev import BlockDevice
from repro.db.wal import CommitPolicy, WriteAheadLog
from repro.errors import DatabaseError
from repro.sim import Simulation

_RECORD_MAGIC = 0x4B56_0001  # 'KV' format v1
_HEADER = struct.Struct("<IIBHI")
_CRC = struct.Struct("<I")
_OP_PUT = 1
_OP_DELETE = 2

MAX_KEY_BYTES = 0xFFFF
MAX_VALUE_BYTES = 0xFFFF_FF


@dataclass
class KvStats:
    """Operation counters."""

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    records_recovered: int = 0
    torn_tail_detected: bool = False


class DurableKv:
    """A write-ahead-logged dictionary over a block device.

    All mutating operations return simulation events (yield them from a
    process); ``get`` is served from memory.  ``recover`` rebuilds the
    dictionary from the device's log region.
    """

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        disk_id: int = 0,
        start_lba: int = 0,
        capacity_sectors: int = 65536,
        policy: Optional[CommitPolicy] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.wal = WriteAheadLog(
            sim, device, disk_id=disk_id, start_lba=start_lba,
            capacity_sectors=capacity_sectors,
            policy=policy or SyncCommitPolicy())
        self.stats = KvStats()
        self._data: Dict[bytes, bytes] = {}
        self._region = (disk_id, start_lba, capacity_sectors)

    # ------------------------------------------------------------------
    # In-memory view

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return bytes(key) in self._data

    def get(self, key: bytes) -> Optional[bytes]:
        """Read a key (memory-resident; None if absent)."""
        self.stats.gets += 1
        return self._data.get(bytes(key))

    # ------------------------------------------------------------------
    # Mutations (run inside a sim process: ``yield from kv.put(...)``)

    def put(self, key: bytes, value: bytes) -> Generator:
        """Durably store ``key -> value``; completes when durable."""
        record = self._encode(_OP_PUT, bytes(key), bytes(value))
        lsn = yield self.wal.append(record)
        durable = yield self.wal.commit(lsn)
        if self.wal.policy.wait_for_durable:
            yield durable
        self._data[bytes(key)] = bytes(value)
        self.stats.puts += 1
        return durable

    def delete(self, key: bytes) -> Generator:
        """Durably remove ``key`` (idempotent)."""
        record = self._encode(_OP_DELETE, bytes(key), b"")
        lsn = yield self.wal.append(record)
        durable = yield self.wal.commit(lsn)
        if self.wal.policy.wait_for_durable:
            yield durable
        self._data.pop(bytes(key), None)
        self.stats.deletes += 1
        return durable

    def _encode(self, op: int, key: bytes, value: bytes) -> bytes:
        if not key:
            raise DatabaseError("key must be non-empty")
        if len(key) > MAX_KEY_BYTES:
            raise DatabaseError(f"key too long: {len(key)} bytes")
        if len(value) > MAX_VALUE_BYTES:
            raise DatabaseError(f"value too long: {len(value)} bytes")
        body = _HEADER.pack(_RECORD_MAGIC, self.wal.stats.flushes,
                            op, len(key), len(value)) + key + value
        record = body + _CRC.pack(zlib.crc32(body))
        # The region is not compacted: recovery scans it linearly, so a
        # wrapped log would destroy the oldest records.  Refuse instead.
        _disk, _start, capacity = self._region
        region_bytes = capacity * self.device.sector_size
        if self.wal.appended_lsn + len(record) > region_bytes:
            raise DatabaseError(
                "KV log region exhausted; compaction is not implemented "
                f"(capacity {region_bytes} bytes)")
        return record

    # ------------------------------------------------------------------
    # Crash recovery

    def recover(self) -> Generator:
        """Rebuild the dictionary from the on-device log region.

        Reads the whole region from the device (so a Trail-backed
        device runs its own block-level recovery first, at mount) and
        replays every intact record in order; a checksum mismatch or a
        non-record byte ends the scan (torn tail after a crash).
        Returns the number of records replayed.
        """
        disk_id, start_lba, capacity = self._region
        raw = bytearray()
        offset_lba = start_lba
        remaining = capacity
        chunk = 2048  # sectors per read
        while remaining > 0:
            take = min(chunk, remaining)
            data = yield self.device.read(offset_lba, take,
                                          disk_id=disk_id)
            raw.extend(data)
            offset_lba += take
            remaining -= take

        self._data.clear()
        replayed = 0
        offset = 0
        header_size = _HEADER.size
        while offset + header_size + _CRC.size <= len(raw):
            try:
                magic, _flush_check, op, klen, vlen = _HEADER.unpack_from(
                    raw, offset)
            except struct.error:
                break
            if magic != _RECORD_MAGIC:
                break
            end = offset + header_size + klen + vlen
            if end + _CRC.size > len(raw):
                self.stats.torn_tail_detected = True
                break
            body = bytes(raw[offset:end])
            (crc,) = _CRC.unpack_from(raw, end)
            if crc != zlib.crc32(body):
                self.stats.torn_tail_detected = True
                break
            key = body[header_size:header_size + klen]
            value = body[header_size + klen:header_size + klen + vlen]
            if op == _OP_PUT:
                self._data[key] = value
            elif op == _OP_DELETE:
                self._data.pop(key, None)
            else:
                break
            replayed += 1
            offset = end + _CRC.size
        self.stats.records_recovered = replayed
        return replayed
