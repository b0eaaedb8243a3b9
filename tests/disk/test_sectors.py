"""Unit and property tests for the sector store."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.disk.sectors import SectorStore
from repro.errors import AddressError


@pytest.fixture
def store():
    return SectorStore(total_sectors=64)


class TestBasics:
    def test_unwritten_reads_zero(self, store):
        assert store.read_sector(0) == bytes(512)
        assert not store.is_written(0)

    def test_write_read_sector(self, store):
        data = bytes(range(256)) * 2
        store.write_sector(5, data)
        assert store.read_sector(5) == data
        assert store.is_written(5)
        assert len(store) == 1

    def test_sector_write_wrong_size(self, store):
        with pytest.raises(AddressError):
            store.write_sector(0, b"short")

    def test_out_of_range(self, store):
        with pytest.raises(AddressError):
            store.read_sector(64)
        with pytest.raises(AddressError):
            store.write_sector(-1, bytes(512))

    def test_invalid_construction(self):
        with pytest.raises(AddressError):
            SectorStore(0)


class TestExtents:
    def test_multi_sector_write(self, store):
        data = b"A" * 512 + b"B" * 512
        store.write(10, data)
        assert store.read_sector(10) == b"A" * 512
        assert store.read_sector(11) == b"B" * 512

    def test_partial_sector_padded(self, store):
        store.write(0, b"xyz")
        assert store.read_sector(0) == b"xyz" + bytes(509)

    def test_read_extent_mixes_written_and_zero(self, store):
        store.write_sector(1, b"Q" * 512)
        data = store.read(0, 3)
        assert data[:512] == bytes(512)
        assert data[512:1024] == b"Q" * 512
        assert data[1024:] == bytes(512)

    def test_empty_write_rejected(self, store):
        with pytest.raises(AddressError):
            store.write(0, b"")

    def test_extent_overflow(self, store):
        with pytest.raises(AddressError):
            store.write(63, bytes(1024))
        with pytest.raises(AddressError):
            store.read(63, 2)

    def test_erase(self, store):
        store.write(5, bytes([1]) * 1024)
        store.erase(5, 1)
        assert store.read_sector(5) == bytes(512)
        assert store.is_written(6)

    def test_clear(self, store):
        store.write(0, b"data")
        store.clear()
        assert len(store) == 0


class TestSnapshot:
    def test_snapshot_restore(self, store):
        store.write_sector(3, b"3" * 512)
        snapshot = store.snapshot()
        store.write_sector(3, b"X" * 512)
        store.write_sector(4, b"4" * 512)
        store.restore(snapshot)
        assert store.read_sector(3) == b"3" * 512
        assert not store.is_written(4)

    def test_snapshot_is_independent(self, store):
        store.write_sector(0, b"a" * 512)
        snapshot = store.snapshot()
        store.write_sector(0, b"b" * 512)
        assert snapshot[0] == b"a" * 512


class TestRestoreFromPlainDict:
    """restore() takes the ``{lba: bytes}`` form crash tests hand back
    after damaging sectors, so it checks it like any other write."""

    def test_round_trip(self, store):
        store.write(10, b"A" * 512 + b"B" * 512)
        plain = dict(store.snapshot())
        plain[11] = b"X" * 512
        plain[40] = b"Y" * 512
        store.restore(plain)
        assert store.read(10, 2) == b"A" * 512 + b"X" * 512
        assert store.read_sector(40) == b"Y" * 512
        assert list(store.written_extents()) == [(10, 2), (40, 1)]
        assert len(store) == 3

    @pytest.mark.parametrize("bad", [
        # A short sector: the parent spliced its three bytes over a
        # 512-byte slot and shifted every later sector of the chunk.
        {0: b"abc", 1: b"B" * 512},
        {1: b"B" * 512, 2: b"C" * 513},    # long sector
        {1: b"B" * 512, 64: b"C" * 512},   # past the end of the store
        {-1: b"C" * 512},
        {1000: b"C" * 512},
    ])
    def test_bad_sector_rejected_and_store_unchanged(self, store, bad):
        store.write(1, b"k" * 1024)
        snapshot = store.snapshot()
        with pytest.raises(AddressError):
            store.restore(bad)
        assert store.read(0, 64) == bytes(512) + b"k" * 1024 + bytes(61 * 512)
        assert list(store.written_extents()) == [(1, 2)]
        assert len(store) == 2
        assert store.snapshot() == snapshot


class TestRightSized:
    """Host memory follows the sectors written, not the 32-sector
    neighbourhoods touched (Trail writes sparsely on purpose)."""

    def test_sparse_records_cost_what_they_hold(self):
        store = SectorStore(total_sectors=2000 * 61 + 3)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            for index in range(2000):
                record = bytes([index % 251]) * (3 * 512)
                store.write(index * 61, record)
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 6000
        assert after - before <= 1.5 * 6000 * 512

    def test_rewriting_a_page_keeps_one_page(self):
        """Replaced and cut pieces are released, and the sector that
        survives of a 16 KiB blob does not keep the blob alive."""
        store = SectorStore(total_sectors=64)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            store.write(0, bytes([7]) * (32 * 512))
            for index in range(1000):
                store.write(8, bytes([index % 251]) * (8 * 512))
            store.erase(0, 8)
            store.erase(16, 15)
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.read(8, 8) == bytes([999 % 251]) * (8 * 512)
        assert store.read_sector(31) == bytes([7]) * 512
        assert list(store.written_extents()) == [(8, 8), (31, 1)]
        assert after - before <= 2 * 8 * 512


class TestWrittenExtents:
    def test_empty(self, store):
        assert list(store.written_extents()) == []

    def test_single_run(self, store):
        store.write(4, bytes(3 * 512))
        assert list(store.written_extents()) == [(4, 3)]

    def test_multiple_runs(self, store):
        store.write_sector(0, bytes(512))
        store.write_sector(2, bytes(512))
        store.write_sector(3, bytes(512))
        assert list(store.written_extents()) == [(0, 1), (2, 2)]


@given(st.data())
def test_write_read_round_trip_property(data):
    store = SectorStore(total_sectors=32, sector_size=64)
    writes = data.draw(st.lists(
        st.tuples(st.integers(0, 31),
                  st.binary(min_size=1, max_size=192)),
        min_size=1, max_size=10))
    expected = {}
    for lba, payload in writes:
        nsectors = (len(payload) + 63) // 64
        if lba + nsectors > 32:
            continue
        store.write(lba, payload)
        padded = payload + bytes(nsectors * 64 - len(payload))
        for index in range(nsectors):
            expected[lba + index] = padded[index * 64:(index + 1) * 64]
    for lba, content in expected.items():
        assert store.read_sector(lba) == content
