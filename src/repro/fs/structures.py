"""On-disk structures of the mini file system.

A deliberately ext2-flavoured layout on a block device, with real
serialized bytes so a crashed image can be remounted and checked:

    block 0            superblock
    block 1            block-allocation bitmap
    block 2            inode table (fixed number of inodes)
    blocks 3..N        data blocks (file contents + directory entries)

Blocks are 4 KiB (8 sectors).  Inodes hold 12 direct block pointers
and one single-indirect pointer, giving a max file size of
(12 + 1024) blocks ≈ 4.1 MB — plenty for the workloads the benchmarks
drive.  The root directory is inode 0; it is the only directory (a
flat namespace, like the paper's benchmark file sets).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ReproError


class FsError(ReproError):
    """File-system level failure (bad image, no space, missing file)."""


#: Bytes per file-system block.
BLOCK_BYTES = 4096
#: Sectors per block (512-byte sectors).
BLOCK_SECTORS = BLOCK_BYTES // 512
#: Direct block pointers per inode.
DIRECT_POINTERS = 12
#: Block pointers in an indirect block.
INDIRECT_POINTERS = BLOCK_BYTES // 4
#: Sentinel for "no block".
NO_BLOCK = 0xFFFF_FFFF

_SUPERBLOCK = struct.Struct("<8sIIIII")
_SUPER_MAGIC = b"MINIFSv1"

# mode, size, mtime(ms), indirect, then 12 direct pointers
_INODE = struct.Struct("<IIQI" + "I" * DIRECT_POINTERS)
INODE_BYTES = _INODE.size
INODES_PER_BLOCK = BLOCK_BYTES // INODE_BYTES

#: inode number, name length, then the name (fixed 56-byte slot).
_DIRENT = struct.Struct("<IH56s")
DIRENT_BYTES = _DIRENT.size
MAX_NAME_BYTES = 56

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2


@dataclass
class Superblock:
    """Root metadata of a file-system image."""

    total_blocks: int
    inode_blocks: int
    data_start: int
    inode_count: int
    clean: int = 1

    def encode(self) -> bytes:
        packed = _SUPERBLOCK.pack(
            _SUPER_MAGIC, self.total_blocks, self.inode_blocks,
            self.data_start, self.inode_count, self.clean)
        return packed + bytes(BLOCK_BYTES - len(packed))

    @classmethod
    def decode(cls, raw: bytes) -> "Superblock":
        if len(raw) < _SUPERBLOCK.size:
            raise FsError("superblock too short")
        magic, total, inode_blocks, data_start, inode_count, clean = \
            _SUPERBLOCK.unpack_from(raw)
        if magic != _SUPER_MAGIC:
            raise FsError(f"not a minifs image (magic {magic!r})")
        return cls(total_blocks=total, inode_blocks=inode_blocks,
                   data_start=data_start, inode_count=inode_count,
                   clean=clean)


@dataclass
class Inode:
    """An in-memory inode; serializes to a fixed-size table slot."""

    mode: int = MODE_FREE
    size: int = 0
    mtime_ms: int = 0
    indirect: int = NO_BLOCK
    direct: List[int] = field(
        default_factory=lambda: [NO_BLOCK] * DIRECT_POINTERS)

    def encode(self) -> bytes:
        return _INODE.pack(self.mode, self.size, self.mtime_ms,
                           self.indirect, *self.direct)

    @classmethod
    def decode(cls, raw: bytes) -> "Inode":
        fields = _INODE.unpack_from(raw)
        mode, size, mtime, indirect = fields[:4]
        return cls(mode=mode, size=size, mtime_ms=mtime,
                   indirect=indirect, direct=list(fields[4:]))

    @property
    def is_free(self) -> bool:
        return self.mode == MODE_FREE

    def blocks_for_size(self) -> int:
        """Data blocks a file of this size occupies."""
        return (self.size + BLOCK_BYTES - 1) // BLOCK_BYTES


def encode_dirent(inode_number: int, name: str) -> bytes:
    """Serialize one directory entry."""
    raw_name = name.encode("utf-8")
    if not raw_name or len(raw_name) > MAX_NAME_BYTES:
        raise FsError(f"bad file name {name!r}")
    return _DIRENT.pack(inode_number, len(raw_name),
                        raw_name.ljust(MAX_NAME_BYTES, b"\x00"))


def decode_dirents(raw: bytes) -> List[Tuple[int, str]]:
    """Parse a directory block into (inode, name) pairs."""
    entries = []
    for offset in range(0, len(raw) - DIRENT_BYTES + 1, DIRENT_BYTES):
        inode_number, name_length, name_raw = _DIRENT.unpack_from(
            raw, offset)
        if name_length == 0 or name_length > MAX_NAME_BYTES:
            continue
        entries.append((inode_number,
                        name_raw[:name_length].decode("utf-8",
                                                      "replace")))
    return entries


class Bitmap:
    """A block-allocation bitmap backed by one 4 KiB block."""

    def __init__(self, raw: Optional[bytes] = None) -> None:
        self._bits = bytearray(raw) if raw is not None \
            else bytearray(BLOCK_BYTES)
        if len(self._bits) != BLOCK_BYTES:
            raise FsError("bitmap block must be exactly one block")

    def is_set(self, index: int) -> bool:
        return bool(self._bits[index // 8] & (1 << (index % 8)))

    def set(self, index: int) -> None:
        self._bits[index // 8] |= 1 << (index % 8)

    def clear(self, index: int) -> None:
        self._bits[index // 8] &= ~(1 << (index % 8))

    def find_free(self, low: int, high: int) -> Optional[int]:
        """First clear bit in [low, high), or None."""
        for index in range(low, high):
            if not self.is_set(index):
                return index
        return None

    def count_set(self, low: int, high: int) -> int:
        return sum(1 for index in range(low, high) if self.is_set(index))

    def encode(self) -> bytes:
        return bytes(self._bits)
