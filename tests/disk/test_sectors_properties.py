"""Property tests: the optimized SectorStore vs a naive reference.

``SectorStore`` grew several fast paths (aligned-write slicing, bulk
erase strategies, copy-on-write snapshots, cached extent runs).  These
tests pin its observable behaviour to a deliberately simple reference
implementation that keeps one big mutable byte array — the version you
would write if speed didn't matter — under randomized operation
sequences.  Any divergence is a bug in the fast paths.

The second half pins what a store that keeps *pieces* of what was
written could get wrong and one flat buffer cannot: a write over the
middle, head or tail of an older one, writes that span chunk
boundaries over existing data, erasing inside an earlier write,
snapshots that must not see later writes (nor the store a damaged
snapshot), and a caller mutating the buffer it handed in.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.sectors import CHUNK_SECTORS, SectorStore

SECTOR = 64
TOTAL = 128


class NaiveStore:
    """Reference model: one flat bytearray, no sparse tricks."""

    def __init__(self, total_sectors: int, sector_size: int) -> None:
        self.total_sectors = total_sectors
        self.sector_size = sector_size
        self._data = bytearray(total_sectors * sector_size)
        self._written = [False] * total_sectors

    def write(self, lba: int, data: bytes) -> None:
        size = self.sector_size
        nsectors = max(1, -(-len(data) // size))
        padded = bytes(data) + bytes(nsectors * size - len(data))
        self._data[lba * size:(lba + nsectors) * size] = padded
        for index in range(lba, lba + nsectors):
            self._written[index] = True

    write_sector = write

    def read(self, lba: int, nsectors: int) -> bytes:
        size = self.sector_size
        return bytes(self._data[lba * size:(lba + nsectors) * size])

    def as_dict(self) -> dict:
        """The sparse ``{lba: sector}`` view a snapshot must equal."""
        return {lba: self.read(lba, 1)
                for lba, written in enumerate(self._written) if written}

    def erase(self, lba: int, nsectors: int) -> None:
        size = self.sector_size
        self._data[lba * size:(lba + nsectors) * size] = bytes(
            nsectors * size)
        for index in range(lba, lba + nsectors):
            self._written[index] = False

    def written_extents(self):
        start = None
        for index, written in enumerate(self._written):
            if written and start is None:
                start = index
            elif not written and start is not None:
                yield (start, index - start)
                start = None
        if start is not None:
            yield (start, self.total_sectors - start)


def _payload(seed: int, length: int) -> bytes:
    return bytes((seed * 7 + index * 13) % 256 for index in range(length))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"),
                  st.integers(0, TOTAL - 1),
                  st.integers(1, 5 * SECTOR),
                  st.integers(0, 255)),
        st.tuples(st.just("read"),
                  st.integers(0, TOTAL - 1),
                  st.integers(1, 8),
                  st.just(0)),
        st.tuples(st.just("erase"),
                  st.integers(0, TOTAL - 1),
                  st.integers(1, TOTAL),
                  st.just(0)),
    ),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_store_matches_naive_reference(ops):
    """Random write/read/erase sequences agree with the flat-array model."""
    fast = SectorStore(TOTAL, SECTOR)
    naive = NaiveStore(TOTAL, SECTOR)
    for op, lba, amount, seed in ops:
        if op == "write":
            length = min(amount, (TOTAL - lba) * SECTOR)
            if length == 0:
                continue
            data = _payload(seed, length)
            fast.write(lba, data)
            naive.write(lba, data)
        elif op == "read":
            nsectors = min(amount, TOTAL - lba)
            assert fast.read(lba, nsectors) == naive.read(lba, nsectors)
        else:
            nsectors = min(amount, TOTAL - lba)
            fast.erase(lba, nsectors)
            naive.erase(lba, nsectors)
    assert fast.read(0, TOTAL) == naive.read(0, TOTAL)
    assert list(fast.written_extents()) == list(naive.written_extents())


@settings(max_examples=100, deadline=None)
@given(lba=st.integers(0, TOTAL - 1),
       length=st.integers(1, 4 * SECTOR),
       seed=st.integers(0, 255))
def test_write_read_round_trip(lba, length, seed):
    """What you write is what you read back, zero-padded to sectors."""
    store = SectorStore(TOTAL, SECTOR)
    length = min(length, (TOTAL - lba) * SECTOR)
    data = _payload(seed, length)
    store.write(lba, data)
    nsectors = max(1, -(-length // SECTOR))
    assert store.read(lba, nsectors) == (
        data + bytes(nsectors * SECTOR - length))


@settings(max_examples=100, deadline=None)
@given(lba=st.integers(0, TOTAL - 1), nsectors=st.integers(1, TOTAL))
def test_unwritten_reads_are_zero_filled(lba, nsectors):
    """Reads of never-written sectors return zeros of the right length."""
    store = SectorStore(TOTAL, SECTOR)
    nsectors = min(nsectors, TOTAL - lba)
    assert store.read(lba, nsectors) == bytes(nsectors * SECTOR)


def test_snapshot_isolated_from_later_writes():
    """COW snapshots are frozen: later writes don't leak into them."""
    store = SectorStore(TOTAL, SECTOR)
    store.write(3, _payload(1, SECTOR))
    snap = store.snapshot()
    before = dict(snap)
    store.write(3, _payload(2, SECTOR))
    store.write(4, _payload(3, SECTOR))
    store.erase(0, TOTAL)
    assert dict(snap) == before
    store.restore(snap)
    assert store.read_sector(3) == _payload(1, SECTOR)
    assert store.read_sector(4) == bytes(SECTOR)


def test_extent_cache_invalidated_by_each_mutator():
    """written_extents stays correct across every mutation path."""
    store = SectorStore(TOTAL, SECTOR)
    store.write(2, bytes(SECTOR))
    assert list(store.written_extents()) == [(2, 1)]
    assert list(store.written_extents()) == [(2, 1)]  # cached hit
    store.write_sector(4, bytes(SECTOR))
    assert list(store.written_extents()) == [(2, 1), (4, 1)]
    store.write(3, bytes(SECTOR))
    assert list(store.written_extents()) == [(2, 3)]
    store.erase(3, 1)
    assert list(store.written_extents()) == [(2, 1), (4, 1)]
    store.clear()
    assert list(store.written_extents()) == []


# ----------------------------------------------------------------------
# Overlapping writes, chunk boundaries, snapshots, aliasing

C = CHUNK_SECTORS  # TOTAL is four chunks


def _assert_same(fast: SectorStore, naive: NaiveStore) -> None:
    """Every observable of ``fast`` equals the flat-array model's."""
    assert list(fast.written_extents()) == list(naive.written_extents())
    assert len(fast) == sum(naive._written)
    for lba in range(TOTAL):
        assert fast.is_written(lba) == naive._written[lba]
        sector = fast.read_sector(lba)
        assert type(sector) is bytes
        assert sector == naive.read(lba, 1)
        # Windows that start inside, end inside and straddle pieces
        # and chunks.
        for nsectors in (2, 3, 8, C, C + 1, 2 * C + 3):
            if lba + nsectors <= TOTAL:
                found = fast.read(lba, nsectors)
                assert type(found) is bytes
                assert found == naive.read(lba, nsectors)


#: name -> [(op, lba, nsectors)]; each write gets its own fill pattern.
OVERLAP_CASES = {
    "middle of an older write": [("write", 4, 8), ("write", 7, 2)],
    "head of an older write": [("write", 4, 8), ("write", 2, 5)],
    "tail of an older write": [("write", 4, 8), ("write", 9, 6)],
    "exact rewrite": [("write", 4, 8), ("write", 4, 8)],
    "longer rewrite from the same start": [("write", 4, 3), ("write", 4, 8)],
    "shorter rewrite from the same start": [("write", 4, 8), ("write", 4, 3)],
    "swallows several older writes": [
        ("write", 2, 3), ("write", 6, 1), ("write", 9, 4), ("write", 3, 8)],
    "two chunks over existing data": [
        ("write", C - 6, 4), ("write", C + 1, 5), ("write", C - 4, 8)],
    "three chunks over existing data": [
        ("write", C - 3, 2), ("write", C + 10, 6), ("write", 2 * C + 1, 4),
        ("write", 3 * C - 2, 4), ("write", C - 2, 2 * C + 5)],
    "whole chunk over pieces": [
        ("write", C + 3, 2), ("write", C + 20, 9), ("write", C, C)],
    "erase inside one earlier write": [("write", 4, 8), ("erase", 6, 3)],
    "erase the head and the tail of a write": [
        ("write", 4, 8), ("erase", 2, 4), ("erase", 10, 6)],
    "erase across a chunk boundary inside one write": [
        ("write", C - 5, 10), ("erase", C - 2, 4)],
    "write_sector into the middle of an 8-sector write": [
        ("write", 8, 8), ("write_sector", 11, 1)],
    "write_sector over the first and the last sector of a write": [
        ("write", 8, 8), ("write_sector", 8, 1), ("write_sector", 15, 1)],
    "write into a hole an erase left": [
        ("write", 4, 8), ("erase", 6, 3), ("write", 7, 1)],
}


@pytest.mark.parametrize("name", sorted(OVERLAP_CASES))
def test_overlapping_writes_match_naive_reference(name):
    fast = SectorStore(TOTAL, SECTOR)
    naive = NaiveStore(TOTAL, SECTOR)
    for step, (op, lba, nsectors) in enumerate(OVERLAP_CASES[name]):
        if op == "erase":
            fast.erase(lba, nsectors)
            naive.erase(lba, nsectors)
        else:
            data = _payload(step + 1, nsectors * SECTOR)
            getattr(fast, op)(lba, data)
            getattr(naive, op)(lba, data)
        _assert_same(fast, naive)


snapshot_operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, TOTAL - 1),
                  st.integers(1, 2 * C + 6), st.integers(0, 255)),
        st.tuples(st.just("write_sector"), st.integers(0, TOTAL - 1),
                  st.just(1), st.integers(0, 255)),
        st.tuples(st.just("read"), st.integers(0, TOTAL - 1),
                  st.integers(1, 2 * C + 6), st.just(0)),
        st.tuples(st.just("erase"), st.integers(0, TOTAL - 1),
                  st.integers(1, 12), st.just(0)),
        st.tuples(st.sampled_from(["snapshot", "restore", "restore_dict"]),
                  st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just("damage"), st.integers(0, TOTAL - 1),
                  st.just(1), st.integers(0, 255)),
    ),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=snapshot_operations)
def test_store_and_snapshot_match_naive_reference(ops):
    """Long writes over existing data, interleaved with snapshot,
    damage-the-snapshot and restore: the live store and the snapshot
    each follow their own flat-array model, never each other's."""
    fast = SectorStore(TOTAL, SECTOR)
    naive = NaiveStore(TOTAL, SECTOR)
    snap = fast.snapshot()
    frozen = copy.deepcopy(naive)
    for op, lba, amount, seed in ops:
        nsectors = min(amount, TOTAL - lba)
        if op == "write":
            # Mostly whole sectors, sometimes a padded last one.
            data = _payload(seed, nsectors * SECTOR - seed % 3 * 5)
            fast.write(lba, data)
            naive.write(lba, data)
        elif op == "write_sector":
            fast.write_sector(lba, _payload(seed, SECTOR))
            naive.write_sector(lba, _payload(seed, SECTOR))
        elif op == "read":
            found = fast.read(lba, nsectors)
            assert type(found) is bytes
            assert found == naive.read(lba, nsectors)
        elif op == "erase":
            fast.erase(lba, nsectors)
            naive.erase(lba, nsectors)
        elif op == "snapshot":
            snap = fast.snapshot()
            frozen = copy.deepcopy(naive)
        elif op == "damage":
            snap[lba] = _payload(seed, SECTOR)
            frozen.write(lba, _payload(seed, SECTOR))
        else:
            fast.restore(snap if op == "restore" else dict(snap))
            naive = copy.deepcopy(frozen)
        assert dict(snap) == frozen.as_dict()
    assert dict(snap.items()) == frozen.as_dict()
    assert snap == frozen.as_dict()
    assert fast.read(0, TOTAL) == naive.read(0, TOTAL)
    assert list(fast.written_extents()) == list(naive.written_extents())
    assert len(fast) == sum(naive._written)
    assert dict(fast.snapshot()) == naive.as_dict()


def test_snapshot_overwrite_restore_round_trip():
    """snapshot -> overwrite part of every piece -> restore -> same
    bytes, and the snapshot can be restored a second time."""
    store = SectorStore(TOTAL, SECTOR)
    store.write(4, _payload(1, 8 * SECTOR))
    store.write(C - 3, _payload(2, 6 * SECTOR))
    before = store.read(0, TOTAL)
    snap = store.snapshot()
    for _ in range(2):
        store.write(6, _payload(3, 2 * SECTOR))
        store.write_sector(C - 1, _payload(4, SECTOR))
        store.erase(C, 2)
        store.write(2 * C - 2, _payload(5, 4 * SECTOR))
        assert store.read(0, TOTAL) != before
        store.restore(snap)
        assert store.read(0, TOTAL) == before
        assert list(store.written_extents()) == [(4, 8), (C - 3, 6)]


def test_damaged_snapshot_and_live_store_do_not_see_each_other():
    store = SectorStore(TOTAL, SECTOR)
    store.write(8, _payload(1, 8 * SECTOR))
    original = store.read(8, 8)
    snap = store.snapshot()
    snap[11] = _payload(9, SECTOR)          # inside the 8-sector write
    snap[40] = _payload(8, SECTOR)          # a sector never written
    assert store.read(8, 8) == original
    assert not store.is_written(40)
    store.write_sector(12, _payload(7, SECTOR))
    assert snap[12] == original[4 * SECTOR:5 * SECTOR]
    assert snap[11] == _payload(9, SECTOR)
    store.restore(snap)
    assert store.read_sector(11) == _payload(9, SECTOR)
    assert store.read_sector(12) == original[4 * SECTOR:5 * SECTOR]
    assert store.read_sector(40) == _payload(8, SECTOR)
    # After a restore the two still do not share what they mutate.
    snap[13] = _payload(6, SECTOR)
    store.write_sector(14, _payload(5, SECTOR))
    assert store.read_sector(13) == original[5 * SECTOR:6 * SECTOR]
    assert snap[14] == original[6 * SECTOR:7 * SECTOR]


def _as_bytearray(data: bytes):
    buffer = bytearray(data)
    return buffer, buffer


def _as_memoryview(data: bytes):
    buffer = bytearray(data)
    return memoryview(buffer), buffer


@pytest.mark.parametrize("wrap", [_as_bytearray, _as_memoryview])
@pytest.mark.parametrize("lba, nbytes", [
    (5, SECTOR),                 # one sector
    (5, 8 * SECTOR),             # inside one chunk
    (5, 3 * SECTOR - 7),         # padded last sector
    (C - 2, 5 * SECTOR),         # across a chunk boundary
    (C - 2, (2 * C + 4) * SECTOR),  # across three chunks
])
def test_callers_buffer_is_never_kept(wrap, lba, nbytes):
    """A bytearray or memoryview handed to write() and mutated
    afterwards does not change what the store reads back, and what it
    reads back is immutable ``bytes``."""
    payload = _payload(3, nbytes)
    nsectors = -(-nbytes // SECTOR)
    expected = payload + bytes(nsectors * SECTOR - nbytes)
    store = SectorStore(TOTAL, SECTOR)
    argument, buffer = wrap(payload)
    store.write(lba, argument)
    snap = store.snapshot()
    buffer[:] = bytes(len(buffer))
    found = store.read(lba, nsectors)
    assert type(found) is bytes and found == expected
    assert type(snap[lba]) is bytes and snap[lba] == expected[:SECTOR]
    assert all(type(sector) is bytes for sector in snap.values())


@pytest.mark.parametrize("wrap", [_as_bytearray, _as_memoryview])
def test_callers_sector_buffer_is_never_kept(wrap):
    payload = _payload(4, SECTOR)
    store = SectorStore(TOTAL, SECTOR)
    argument, buffer = wrap(payload)
    store.write_sector(9, argument)
    snap = store.snapshot()
    damaged, damaged_buffer = wrap(_payload(5, SECTOR))
    snap[10] = damaged
    buffer[:] = bytes(SECTOR)
    damaged_buffer[:] = bytes(SECTOR)
    assert store.read_sector(9) == payload
    assert snap[9] == payload
    assert snap[10] == _payload(5, SECTOR)
