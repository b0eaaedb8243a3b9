"""Byte-accurate sector storage backing a simulated disk.

Trail's crash recovery parses raw sector contents (signatures, epochs,
back pointers), so the simulator must store the actual bytes written,
not just remember that "a write happened".  Sectors never written read
back as zeros, matching the paper's format tool which "resets the rest
of the disk content to zero" (§4.1).

``snapshot``/``restore`` let crash tests capture persistent state at an
arbitrary instant and rewind to it, modelling a power failure that
loses everything except what reached the platter.  Snapshots are
copy-on-write: taking one is O(1) — the chunk maps are shared until the
next mutation, which first privatizes them.  Treat a returned snapshot
as opaque/read-only.

Hot-path notes (see docs/PERFORMANCE.md, "Eighth pass"): the store
keeps what was written, not what was touched.  A chunk index (a
neighbourhood of :data:`CHUNK_SECTORS` sectors) maps to the *pieces*
written there: immutable whole-sector ``bytes`` keyed by their byte
offset inside the chunk, never overlapping, never leaving the chunk —
so host memory follows the sectors written, and Trail writes sparsely
on purpose.  A write that fits one chunk keeps the caller's ``bytes``
object itself (anything mutable is copied once); a write over older
pieces cuts them to what survives on either side; a read that starts
a stored piece or lies inside one is a slice of it, any other read
gathers the overlapping pieces into one zero-initialised buffer.
Which sectors were *written* is a per-chunk bitmask (set exactly where
a piece lies) that ``written_extents`` decomposes with bit arithmetic.
A chunk's piece map is replaced, never mutated, so snapshots share
every map and every piece and the first mutation after one copies
only the two top-level dicts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import AddressError
from repro.units import SECTOR_SIZE, Lba, Sectors

#: Sectors per storage chunk.  32 sectors = 16 KiB neighbourhoods at
#: the standard sector size: big enough that track-sized I/O touches one
#: or two chunks, small enough that a chunk holds a handful of pieces.
CHUNK_SECTORS = 32

#: One chunk's pieces: byte offset inside the chunk -> the bytes there.
Pieces = Dict[int, bytes]


def _cut(pieces: Pieces, at: int, stop: int) -> Pieces:
    """``pieces`` without the bytes ``[at, stop)``, as a new map.

    What survives of a cut piece is re-sliced (copied), so a small
    remnant never keeps a large blob alive.
    """
    kept: Pieces = {}
    for start, piece in pieces.items():
        end = start + len(piece)
        if end <= at or start >= stop:
            kept[start] = piece
        else:
            if start < at:
                kept[start] = piece[:at - start]
            if end > stop:
                kept[stop] = piece[stop - end:]
    return kept


def _decompose_mask(mask: int) -> Tuple[Tuple[int, int], ...]:
    """(start_bit, length) runs of consecutive ones in ``mask``.

    Mask values repeat heavily across chunks and scans (single sectors,
    full chunks, common partial fills), so each :class:`SectorStore`
    memoizes decompositions per instance — a cache keyed on this
    store's own write patterns that dies with the store, instead of a
    module-level dict shared (and polluted) across every Trail instance
    in the process.
    """
    decomposed: List[Tuple[int, int]] = []
    value = mask
    while value:
        low = (value & -value).bit_length() - 1
        tail = value >> low
        length = ((tail + 1) & ~tail).bit_length() - 1
        decomposed.append((low, length))
        shift = low + length
        value = value >> shift << shift
    return tuple(decomposed)


class SectorSnapshot:
    """A captured persistent state, viewed as a sparse LBA -> bytes map.

    Shares chunk storage with the originating :class:`SectorStore`
    copy-on-write, so taking one is O(1).  It still honours the
    historical snapshot contract — a mapping from written LBA to that
    sector's bytes: crash tests iterate it, index it, compare it, and
    even damage individual sectors in place (``snap[lba] = mutated``)
    before handing it to :meth:`SectorStore.restore`.
    """

    __slots__ = ("sector_size", "_chunks", "_masks", "_count", "_shared")

    def __init__(self, sector_size: int, chunks: Dict[int, Pieces],
                 masks: Dict[int, int], count: int) -> None:
        self.sector_size = sector_size
        self._chunks = chunks
        self._masks = masks
        self._count = count
        #: True while the two dicts are shared with a store.
        self._shared = True

    # -- mapping protocol (written sectors only) -----------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        return self.keys()

    def keys(self) -> Iterator[int]:
        for lba, _sector in self.items():
            yield lba

    def items(self) -> Iterator[Tuple[int, bytes]]:
        size = self.sector_size
        chunks = self._chunks
        for index in sorted(chunks):
            first = index * CHUNK_SECTORS * size
            for at, piece in sorted(chunks[index].items()):
                for offset in range(0, len(piece), size):
                    yield ((first + at + offset) // size,
                           piece[offset:offset + size])

    def values(self) -> Iterator[bytes]:
        for _lba, sector in self.items():
            yield sector

    def __contains__(self, lba: object) -> bool:
        if not isinstance(lba, int):
            return False
        index, offset = divmod(lba, CHUNK_SECTORS)
        return bool(self._masks.get(index, 0) >> offset & 1)

    def __getitem__(self, lba: int) -> bytes:
        sector = self.get(lba)
        if sector is None:
            raise KeyError(lba)
        return sector

    def get(self, lba: Lba, default: Optional[bytes] = None,
            ) -> Optional[bytes]:
        index, offset = divmod(lba, CHUNK_SECTORS)
        size = self.sector_size
        at = offset * size
        for start, piece in self._chunks.get(index, {}).items():
            if start <= at < start + len(piece):
                return piece[at - start:at - start + size]
        return default

    def __setitem__(self, lba: int, data: bytes) -> None:
        """Replace (or add) one sector — crash tests damage records."""
        size = self.sector_size
        if len(data) != size:
            raise AddressError(
                f"sector write must be exactly {size} bytes, "
                f"got {len(data)}")
        if self._shared:
            self._chunks = dict(self._chunks)
            self._masks = dict(self._masks)
            self._shared = False
        index, offset = divmod(lba, CHUNK_SECTORS)
        at = offset * size
        pieces = _cut(self._chunks.get(index, {}), at, at + size)
        pieces[at] = bytes(data)
        self._chunks[index] = pieces
        mask = self._masks.get(index, 0)
        if not mask >> offset & 1:
            self._masks[index] = mask | 1 << offset
            self._count += 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SectorSnapshot):
            if self._count != other._count:
                return False
            return all(other.get(lba) == sector
                       for lba, sector in self.items())
        if isinstance(other, Mapping) or isinstance(other, dict):
            if len(other) != self._count:
                return False
            return all(other.get(lba) == sector
                       for lba, sector in self.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


#: What restore() accepts: a live snapshot, or a plain sparse
#: LBA -> bytes dict (e.g. ``dict(snapshot)``).
Snapshot = Union[SectorSnapshot, Dict[int, bytes]]


class SectorStore:
    """A sparse map from LBA to sector contents, kept as written pieces."""

    __slots__ = ("total_sectors", "sector_size", "_chunks", "_masks",
                 "_shared", "_written_count", "_extent_cache", "_mask_runs")

    def __init__(self, total_sectors: Sectors,
                 sector_size: int = SECTOR_SIZE) -> None:
        if total_sectors < 1:
            raise AddressError(f"total_sectors must be >= 1, got {total_sectors}")
        self.total_sectors = total_sectors
        self.sector_size = sector_size
        #: chunk index -> the pieces written into that chunk.  A piece
        #: map is replaced, never mutated: a snapshot may share it.
        self._chunks: Dict[int, Pieces] = {}
        #: chunk index -> bitmask of written sectors within the chunk
        #: (never 0: a chunk that loses its last sector is deleted).
        self._masks: Dict[int, int] = {}
        #: True while the two dicts are shared with a snapshot.
        self._shared = False
        self._written_count = 0
        self._extent_cache: Optional[List[Tuple[int, int]]] = None
        #: Per-instance memo of mask -> (start, length) runs; bounded
        #: defensively in written_extents().
        self._mask_runs: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def __len__(self) -> int:
        """Number of sectors that have ever been written."""
        return self._written_count

    def _privatize_maps(self) -> None:
        """Copy-on-write: stop sharing the two dicts with a snapshot."""
        self._chunks = dict(self._chunks)
        self._masks = dict(self._masks)
        self._shared = False

    # ------------------------------------------------------------------
    # Write path

    def write_sector(self, lba: Lba, data: bytes) -> None:
        """Store one sector of exactly ``sector_size`` bytes at ``lba``."""
        if len(data) != self.sector_size:
            raise AddressError(
                f"sector write must be exactly {self.sector_size} bytes, "
                f"got {len(data)}")
        self.write(lba, data)

    def write(self, lba: Lba, data: bytes) -> None:
        """Store a multi-sector extent; ``data`` is padded to whole sectors."""
        if not data:
            raise AddressError("cannot write an empty extent")
        size = self.sector_size
        length = len(data)
        nsectors = (length + size - 1) // size
        if lba < 0 or nsectors < 1 or lba + nsectors > self.total_sectors:
            self._check_extent(lba, nsectors)
        if type(data) is not bytes or length != nsectors * size:
            # Keep nothing the caller can still mutate (one copy), and
            # only whole sectors.
            data = bytes(data) + bytes(nsectors * size - length)
        self._extent_cache = None
        if self._shared:
            self._privatize_maps()
        chunks = self._chunks
        masks = self._masks
        index, offset = divmod(lba, CHUNK_SECTORS)
        position = 0
        while True:
            take = CHUNK_SECTORS - offset
            if take > nsectors:
                take = nsectors
            at = offset * size
            nbytes = take * size
            # The whole of ``data`` when it fits the chunk: a full-range
            # slice of a ``bytes`` is the object itself, not a copy.
            piece = data[position:position + nbytes]
            bits = ((1 << take) - 1) << offset
            mask = masks.get(index, 0)
            if not mask:
                chunks[index] = {at: piece}
            elif not mask & bits or len(chunks[index].get(at, b"")) == nbytes:
                # Beside the older pieces, or exactly over one of them.
                chunks[index] = {**chunks[index], at: piece}
            else:
                pieces = chunks[index] = _cut(chunks[index], at, at + nbytes)
                pieces[at] = piece
            added = bits & ~mask
            if added:
                masks[index] = mask | bits
                self._written_count += added.bit_count()
            nsectors -= take
            if not nsectors:
                return
            position += nbytes
            index += 1
            offset = 0

    # ------------------------------------------------------------------
    # Read path

    def read_sector(self, lba: Lba) -> bytes:
        """Read one sector; unwritten sectors are all-zeros."""
        return self.read(lba, 1)

    def read(self, lba: Lba, nsectors: Sectors) -> bytes:
        """Read ``nsectors`` contiguous sectors starting at ``lba``."""
        if lba < 0 or nsectors < 1 or lba + nsectors > self.total_sectors:
            self._check_extent(lba, nsectors)
        size = self.sector_size
        chunks = self._chunks
        index, offset = divmod(lba, CHUNK_SECTORS)
        # The read is bytes [start, stop) of chunk ``index``; past the
        # chunk's end it runs on into the next ones.
        start = offset * size
        nbytes = nsectors * size
        stop = start + nbytes
        pieces = chunks.get(index)
        if offset + nsectors <= CHUNK_SECTORS:
            if pieces is None:
                return bytes(nbytes)
            piece = pieces.get(start)
            if piece is not None and len(piece) >= nbytes:
                return piece[:nbytes]  # the piece itself when all of it
        gathered: Optional[bytearray] = None
        chunk_bytes = CHUNK_SECTORS * size
        while True:
            if pieces is not None:
                for at, piece in pieces.items():
                    end = at + len(piece)
                    if at < stop and end > start:
                        if at <= start and end >= stop:
                            return piece[start - at:stop - at]
                        if gathered is None:
                            gathered = bytearray(nbytes)
                        low = at - start if at > start else 0
                        part = piece[low + start - at:stop - at]
                        gathered[low:low + len(part)] = part
            stop -= chunk_bytes
            if stop <= 0:
                # Nothing stored there: unwritten sectors read as zeros.
                return bytes(nbytes) if gathered is None else bytes(gathered)
            start -= chunk_bytes
            index += 1
            pieces = chunks.get(index)

    def is_written(self, lba: Lba) -> bool:
        """True if ``lba`` has been written since format/clear."""
        if lba < 0 or lba >= self.total_sectors:
            self._check_lba(lba)
        index, offset = divmod(lba, CHUNK_SECTORS)
        return bool(self._masks.get(index, 0) >> offset & 1)

    # ------------------------------------------------------------------
    # Erase path

    def clear(self) -> None:
        """Reset every sector to zeros (re-format)."""
        # Any old maps live on in the snapshots that share them.
        self._chunks = {}
        self._masks = {}
        self._shared = False
        self._written_count = 0
        self._extent_cache = None

    def erase(self, lba: Lba, nsectors: Sectors) -> None:
        """Zero an extent (used when Trail's format tool wipes the log)."""
        if lba < 0 or nsectors < 1 or lba + nsectors > self.total_sectors:
            self._check_extent(lba, nsectors)
        if lba == 0 and lba + nsectors >= self.total_sectors:
            self.clear()
            return
        self._extent_cache = None
        if self._shared:
            self._privatize_maps()
        chunks = self._chunks
        masks = self._masks
        size = self.sector_size
        index, offset = divmod(lba, CHUNK_SECTORS)
        while nsectors > 0:
            take = min(CHUNK_SECTORS - offset, nsectors)
            mask = masks.get(index, 0)
            removed = mask & ((1 << take) - 1) << offset
            if removed:
                self._written_count -= removed.bit_count()
                if removed == mask:
                    del chunks[index]
                    del masks[index]
                else:
                    at = offset * size
                    chunks[index] = _cut(chunks[index], at, at + take * size)
                    masks[index] = mask & ~removed
            nsectors -= take
            index += 1
            offset = 0

    # ------------------------------------------------------------------
    # Snapshots

    def snapshot(self) -> SectorSnapshot:
        """O(1) copy-on-write view of the persistent state."""
        self._shared = True
        return SectorSnapshot(self.sector_size, self._chunks, self._masks,
                              self._written_count)

    def restore(self, snapshot: Snapshot) -> None:
        """Rewind the store to a previously captured snapshot.

        Accepts a :class:`SectorSnapshot` (adopted copy-on-write) or a
        plain sparse ``{lba: sector_bytes}`` dict, which is checked like
        any other write — and before the store is touched.
        """
        if isinstance(snapshot, SectorSnapshot):
            self._chunks = snapshot._chunks
            self._masks = snapshot._masks
            self._written_count = snapshot._count
            # Both sides now hold the same two dicts.
            self._shared = snapshot._shared = True
            self._extent_cache = None
            return
        for lba, sector in snapshot.items():
            self._check_lba(lba)
            if len(sector) != self.sector_size:
                raise AddressError(
                    f"sector {lba} must be exactly {self.sector_size} "
                    f"bytes, got {len(sector)}")
        self.clear()
        for lba, sector in snapshot.items():
            self.write(lba, sector)

    # ------------------------------------------------------------------
    # Introspection

    def written_extents(self) -> Iterator[Tuple[int, int]]:
        """Yield maximal (start_lba, nsectors) runs of written sectors.

        The run list is cached and reused until the next mutation.
        """
        cache = self._extent_cache
        if cache is None:
            cache = []
            run_start = -1
            run_end = -1  # one past the last LBA of the open run
            masks = self._masks
            memo = self._mask_runs
            for index in sorted(masks):
                mask = masks[index]
                if not mask:
                    continue
                base = index * CHUNK_SECTORS
                runs = memo.get(mask)
                if runs is None:
                    if len(memo) > (1 << 16):
                        memo.clear()
                    runs = memo[mask] = _decompose_mask(mask)
                for low, run_length in runs:
                    start = base + low
                    if start == run_end:
                        run_end += run_length
                    else:
                        if run_start >= 0:
                            cache.append((run_start, run_end - run_start))
                        run_start = start
                        run_end = start + run_length
            if run_start >= 0:
                cache.append((run_start, run_end - run_start))
            self._extent_cache = cache
        return iter(cache)

    # ------------------------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.total_sectors:
            raise AddressError(
                f"LBA {lba} out of range [0, {self.total_sectors})")

    def _check_extent(self, lba: int, nsectors: int) -> None:
        self._check_lba(lba)
        if nsectors < 1:
            raise AddressError(f"sector count must be >= 1, got {nsectors}")
        if lba + nsectors > self.total_sectors:
            raise AddressError(
                f"extent [{lba}, {lba + nsectors}) exceeds store size "
                f"{self.total_sectors}")
