"""The mini file system over a block device.

The stack the paper's Figure 2 shows — "Linux file system interacts
directly with the Trail driver using a low-level access interface" —
realized small: a flat-namespace, ext2-flavoured file system whose
every structure lives as real bytes on the device.  Running it over a
:class:`~repro.core.driver.TrailDriver` makes ``fsync`` cost a log
write; over the standard driver it costs seek + rotation per block —
which is the whole paper, observable through a file API.

Durability contract: ``write`` with ``sync=True`` (O_SYNC) or an
explicit ``fsync`` forces the file's data blocks, its inode, the
bitmap, and any new directory entry before returning.  Async writes
sit in the file system's dirty cache until ``fsync``/``sync_all``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.blockdev import BlockDevice
from repro.fs.structures import (
    BLOCK_BYTES, BLOCK_SECTORS, Bitmap, DIRECT_POINTERS, DIRENT_BYTES,
    FsError, INDIRECT_POINTERS, INODE_BYTES, INODES_PER_BLOCK, Inode,
    MODE_DIR, MODE_FILE, NO_BLOCK, Superblock, decode_dirents,
    encode_dirent)
from repro.sim import Event, Simulation

_SUPER_BLOCK = 0
_BITMAP_BLOCK = 1
_INODE_TABLE_BLOCK = 2
_ROOT_INODE = 0


class FileHandle:
    """An open file: a thin token holding the inode number."""

    def __init__(self, fs: "FileSystem", inode_number: int,
                 name: str) -> None:
        self.fs = fs
        self.inode_number = inode_number
        self.name = name


class FileSystem:
    """A mountable file system on one data disk of a block device."""

    def __init__(self, sim: Simulation, device: BlockDevice,
                 disk_id: int = 0, start_lba: int = 0) -> None:
        self.sim = sim
        self.device = device
        self.disk_id = disk_id
        self.start_lba = start_lba
        self.superblock: Optional[Superblock] = None
        self._bitmap: Optional[Bitmap] = None
        self._inodes: List[Inode] = []
        self._root: Dict[str, int] = {}
        #: Block cache of dirty data not yet on the device.
        self._dirty_blocks: Dict[int, bytes] = {}
        self._dirty_meta: Set[str] = set()
        self._mounted = False

    # ------------------------------------------------------------------
    # Formatting and mounting

    @classmethod
    def mkfs(cls, sim: Simulation, device: BlockDevice,
             total_blocks: int, disk_id: int = 0,
             start_lba: int = 0) -> Generator[Event, Any, "FileSystem"]:
        """Create an empty file system; run as a process.

        Returns a mounted :class:`FileSystem`.
        """
        if total_blocks < 8:
            raise FsError("need at least 8 blocks")
        inode_blocks = 1
        superblock = Superblock(
            total_blocks=total_blocks, inode_blocks=inode_blocks,
            data_start=_INODE_TABLE_BLOCK + inode_blocks,
            inode_count=INODES_PER_BLOCK, clean=1)
        fs = cls(sim, device, disk_id=disk_id, start_lba=start_lba)
        fs.superblock = superblock
        fs._bitmap = Bitmap()
        for block in range(superblock.data_start):
            fs._bitmap.set(block)
        fs._inodes = [Inode() for _ in range(superblock.inode_count)]
        fs._inodes[_ROOT_INODE] = Inode(mode=MODE_DIR, size=0)
        fs._root = {}
        fs._mounted = True
        yield from fs._write_block(_SUPER_BLOCK, superblock.encode())
        yield from fs._flush_metadata()
        return fs

    def mount(self) -> Generator[Event, Any, "FileSystem"]:
        """Read and validate the on-device image; run as a process."""
        if self._mounted:
            raise FsError("already mounted")
        raw = yield from self._read_block(_SUPER_BLOCK)
        self.superblock = Superblock.decode(raw)
        raw = yield from self._read_block(_BITMAP_BLOCK)
        self._bitmap = Bitmap(raw)
        raw = yield from self._read_block(_INODE_TABLE_BLOCK)
        self._inodes = [
            Inode.decode(raw[index * INODE_BYTES:
                             (index + 1) * INODE_BYTES])
            for index in range(self.superblock.inode_count)
        ]
        self._mounted = True
        yield from self._load_root()
        return self

    def _load_root(self) -> Generator[Event, Any, None]:
        self._root = {}
        root = self._inodes[_ROOT_INODE]
        if root.mode != MODE_DIR:
            raise FsError("root inode is not a directory")
        data = yield from self._read_file_bytes(_ROOT_INODE)
        for inode_number, name in decode_dirents(data):
            self._root[name] = inode_number

    # ------------------------------------------------------------------
    # Public file API (all generators: drive via sim processes)

    def create(self, name: str) -> Generator[Event, Any, "FileHandle"]:
        """Create an empty file; metadata is forced synchronously."""
        self._check_mounted()
        if name in self._root:
            raise FsError(f"file exists: {name!r}")
        inode_number = self._find_free_inode()
        self._inodes[inode_number] = Inode(mode=MODE_FILE, size=0,
                                           mtime_ms=int(self.sim.now))
        self._root[name] = inode_number
        yield from self._append_root_entry(inode_number, name)
        yield from self._flush_metadata()
        return FileHandle(self, inode_number, name)

    def open(self, name: str) -> FileHandle:
        """Open an existing file (no I/O: the namespace is cached)."""
        self._check_mounted()
        inode_number = self._root.get(name)
        if inode_number is None:
            raise FsError(f"no such file: {name!r}")
        return FileHandle(self, inode_number, name)

    def listdir(self) -> List[str]:
        """Names in the root directory."""
        self._check_mounted()
        return sorted(self._root)

    def write(self, handle: FileHandle, offset: int, data: bytes,
              sync: bool = False) -> Generator[Event, Any, int]:
        """Write ``data`` at ``offset``; ``sync=True`` is O_SYNC."""
        self._check_mounted()
        if offset < 0 or not data:
            raise FsError("bad write range")
        inode = self._inodes[handle.inode_number]
        end = offset + len(data)
        touched: List[int] = []
        position = offset
        consumed = 0
        while position < end:
            block_index = position // BLOCK_BYTES
            within = position % BLOCK_BYTES
            take = min(BLOCK_BYTES - within, end - position)
            block = yield from self._block_of(handle.inode_number,
                                              block_index,
                                              allocate=True)
            current = yield from self._read_data_block(block)
            patched = (current[:within] + data[consumed:consumed + take]
                       + current[within + take:])
            self._dirty_blocks[block] = patched
            touched.append(block)
            position += take
            consumed += take
        if end > inode.size:
            inode.size = end
        inode.mtime_ms = int(self.sim.now)
        self._dirty_meta.add("inodes")
        if sync:
            yield from self.fsync(handle)
        return len(data)

    def read(self, handle: FileHandle, offset: int,
             length: int) -> Generator[Event, Any, bytes]:
        """Read up to ``length`` bytes from ``offset``."""
        self._check_mounted()
        inode = self._inodes[handle.inode_number]
        if offset >= inode.size:
            return b""
        end = min(offset + length, inode.size)
        out = bytearray()
        position = offset
        while position < end:
            block_index = position // BLOCK_BYTES
            within = position % BLOCK_BYTES
            take = min(BLOCK_BYTES - within, end - position)
            block = yield from self._block_of(handle.inode_number,
                                              block_index,
                                              allocate=False)
            if block == NO_BLOCK:
                out += bytes(take)  # hole
            else:
                raw = yield from self._read_data_block(block)
                out += raw[within:within + take]
            position += take
        return bytes(out)

    def fsync(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """Force the file's dirty data and all metadata."""
        self._check_mounted()
        blocks = yield from self._file_blocks(handle.inode_number)
        for block in blocks:
            if block in self._dirty_blocks:
                yield from self._write_block(
                    block, self._dirty_blocks.pop(block))
        yield from self._flush_metadata()

    def unlink(self, name: str) -> Generator[Event, Any, None]:
        """Remove a file, freeing its inode and blocks."""
        self._check_mounted()
        inode_number = self._root.pop(name, None)
        if inode_number is None:
            raise FsError(f"no such file: {name!r}")
        blocks = yield from self._file_blocks(inode_number)
        inode = self._inodes[inode_number]
        for block in blocks:
            if block != NO_BLOCK:
                self._bitmap.clear(block)
                self._dirty_blocks.pop(block, None)
        if inode.indirect != NO_BLOCK:
            self._bitmap.clear(inode.indirect)
        self._inodes[inode_number] = Inode()
        self._dirty_meta.update(("inodes", "bitmap"))
        yield from self._rewrite_root_directory()
        yield from self._flush_metadata()

    def stat(self, name: str) -> Tuple[int, int]:
        """(size, mtime_ms) of a file."""
        inode = self._inodes[self._root[name]] \
            if name in self._root else None
        if inode is None:
            raise FsError(f"no such file: {name!r}")
        return inode.size, inode.mtime_ms

    # ------------------------------------------------------------------
    # Consistency check (fsck-lite)

    def check(self) -> List[str]:
        """Verify allocation invariants; returns a list of problems."""
        problems: List[str] = []
        seen: Dict[int, int] = {}
        for number, inode in enumerate(self._inodes):
            if inode.is_free:
                continue
            pointers = [p for p in inode.direct if p != NO_BLOCK]
            if inode.indirect != NO_BLOCK:
                pointers.append(inode.indirect)
            for block in pointers:
                if block >= self.superblock.total_blocks:
                    problems.append(
                        f"inode {number}: block {block} out of range")
                elif not self._bitmap.is_set(block):
                    problems.append(
                        f"inode {number}: block {block} not allocated")
                if block in seen:
                    problems.append(
                        f"block {block} shared by inodes "
                        f"{seen[block]} and {number}")
                seen[block] = number
        for name, inode_number in self._root.items():
            if self._inodes[inode_number].is_free:
                problems.append(
                    f"dirent {name!r} points at free inode "
                    f"{inode_number}")
        return problems

    # ------------------------------------------------------------------
    # Block plumbing

    def _lba_of_block(self, block: int) -> int:
        return self.start_lba + block * BLOCK_SECTORS

    def _read_block(self, block: int) -> Generator[Event, Any, bytes]:
        data: bytes = yield self.device.read(self._lba_of_block(block),
                                      BLOCK_SECTORS,
                                      disk_id=self.disk_id)
        return data

    def _read_data_block(self, block: int) -> Generator[Event, Any, bytes]:
        cached = self._dirty_blocks.get(block)
        if cached is not None:
            return cached
        return (yield from self._read_block(block))

    def _write_block(self, block: int, data: bytes) -> Generator[Event, Any, None]:
        if len(data) != BLOCK_BYTES:
            raise FsError("block writes must be exactly one block")
        yield self.device.write(self._lba_of_block(block), data,
                                disk_id=self.disk_id)

    def _flush_metadata(self) -> Generator[Event, Any, None]:
        yield from self._write_block(_BITMAP_BLOCK,
                                     self._bitmap.encode())
        table = b"".join(inode.encode() for inode in self._inodes)
        table += bytes(BLOCK_BYTES - len(table))
        yield from self._write_block(_INODE_TABLE_BLOCK, table)
        self._dirty_meta.clear()

    def _allocate_block(self) -> int:
        block = self._bitmap.find_free(self.superblock.data_start,
                                       self.superblock.total_blocks)
        if block is None:
            raise FsError("file system full")
        self._bitmap.set(block)
        self._dirty_meta.add("bitmap")
        return block

    def _find_free_inode(self) -> int:
        for number, inode in enumerate(self._inodes):
            if inode.is_free and number != _ROOT_INODE:
                return number
        raise FsError("out of inodes")

    def _block_of(self, inode_number: int, block_index: int,
                  allocate: bool) -> Generator[Event, Any, int]:
        """Physical block of a file's ``block_index``-th block."""
        inode = self._inodes[inode_number]
        if block_index < DIRECT_POINTERS:
            block = inode.direct[block_index]
            if block == NO_BLOCK and allocate:
                block = self._allocate_block()
                inode.direct[block_index] = block
                self._dirty_meta.add("inodes")
            return block
        indirect_index = block_index - DIRECT_POINTERS
        if indirect_index >= INDIRECT_POINTERS:
            raise FsError("file too large")
        if inode.indirect == NO_BLOCK:
            if not allocate:
                return NO_BLOCK
            inode.indirect = self._allocate_block()
            self._dirty_blocks[inode.indirect] = \
                NO_BLOCK.to_bytes(4, "little") * INDIRECT_POINTERS
            self._dirty_meta.add("inodes")
        table = yield from self._read_data_block(inode.indirect)
        block = int.from_bytes(
            table[indirect_index * 4:(indirect_index + 1) * 4],
            "little")
        if block == NO_BLOCK and allocate:
            block = self._allocate_block()
            patched = (table[:indirect_index * 4]
                       + block.to_bytes(4, "little")
                       + table[(indirect_index + 1) * 4:])
            self._dirty_blocks[inode.indirect] = patched
        return block

    def _file_blocks(self, inode_number: int) -> Generator[Event, Any, List[int]]:
        """All allocated physical blocks of a file, plus its indirect."""
        inode = self._inodes[inode_number]
        blocks = [p for p in inode.direct if p != NO_BLOCK]
        if inode.indirect != NO_BLOCK:
            blocks.append(inode.indirect)
            table = yield from self._read_data_block(inode.indirect)
            for index in range(INDIRECT_POINTERS):
                pointer = int.from_bytes(
                    table[index * 4:(index + 1) * 4], "little")
                if pointer != NO_BLOCK:
                    blocks.append(pointer)
        return blocks

    # ------------------------------------------------------------------
    # Root directory maintenance

    def _read_file_bytes(self, inode_number: int) -> Generator[Event, Any, bytes]:
        inode = self._inodes[inode_number]
        out = bytearray()
        for block_index in range(inode.blocks_for_size()):
            block = yield from self._block_of(inode_number, block_index,
                                              allocate=False)
            if block == NO_BLOCK:
                out += bytes(BLOCK_BYTES)
            else:
                out += yield from self._read_data_block(block)
        return bytes(out[:inode.size])

    def _append_root_entry(self, inode_number: int,
                           name: str) -> Generator[Event, Any, None]:
        root = self._inodes[_ROOT_INODE]
        entry = encode_dirent(inode_number, name)
        offset = root.size
        block_index = offset // BLOCK_BYTES
        within = offset % BLOCK_BYTES
        block = yield from self._block_of(_ROOT_INODE, block_index,
                                          allocate=True)
        current = yield from self._read_data_block(block)
        patched = (current[:within] + entry
                   + current[within + DIRENT_BYTES:])
        root.size = offset + DIRENT_BYTES
        self._dirty_meta.add("inodes")
        yield from self._write_block(block, patched)

    def _rewrite_root_directory(self) -> Generator[Event, Any, None]:
        root = self._inodes[_ROOT_INODE]
        entries = b"".join(encode_dirent(number, name)
                           for name, number in sorted(self._root.items()))
        root.size = len(entries)
        position = 0
        block_index = 0
        while position < len(entries) or block_index == 0:
            chunk = entries[position:position + BLOCK_BYTES]
            chunk += bytes(BLOCK_BYTES - len(chunk))
            block = yield from self._block_of(_ROOT_INODE, block_index,
                                              allocate=True)
            yield from self._write_block(block, chunk)
            position += BLOCK_BYTES
            block_index += 1

    def _check_mounted(self) -> None:
        if not self._mounted:
            raise FsError("file system is not mounted")
