"""Unit and property tests for disk geometry and LBA mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.geometry import DiskGeometry, Zone, uniform_geometry
from repro.errors import AddressError, GeometryError


@pytest.fixture
def zoned():
    """A three-zone disk: 4 heads, 30 cylinders, SPT 20/16/12."""
    return DiskGeometry(heads=4, zones=[
        Zone(cylinder_count=10, sectors_per_track=20),
        Zone(cylinder_count=10, sectors_per_track=16),
        Zone(cylinder_count=10, sectors_per_track=12),
    ])


class TestConstruction:
    def test_totals(self, zoned):
        assert zoned.num_cylinders == 30
        assert zoned.num_tracks == 120
        assert zoned.total_sectors == 4 * 10 * (20 + 16 + 12)
        assert "30 cyl x 4 heads, 3 zones, 1920 sectors" in repr(zoned)

    def test_capacity_bytes(self, zoned):
        assert zoned.capacity_bytes == zoned.total_sectors * 512

    def test_uniform_constructor(self):
        geometry = uniform_geometry(cylinders=5, heads=2,
                                    sectors_per_track=10)
        assert geometry.total_sectors == 100
        assert len(geometry.zones) == 1

    def test_invalid_heads(self):
        with pytest.raises(GeometryError):
            DiskGeometry(heads=0, zones=[Zone(1, 1)])

    def test_no_zones(self):
        with pytest.raises(GeometryError):
            DiskGeometry(heads=1, zones=[])

    def test_invalid_zone(self):
        with pytest.raises(GeometryError):
            Zone(cylinder_count=0, sectors_per_track=5)
        with pytest.raises(GeometryError):
            Zone(cylinder_count=5, sectors_per_track=0)


class TestZones:
    def test_zone_of_cylinder(self, zoned):
        assert zoned.zone_of_cylinder(0) == 0
        assert zoned.zone_of_cylinder(9) == 0
        assert zoned.zone_of_cylinder(10) == 1
        assert zoned.zone_of_cylinder(29) == 2

    def test_sectors_per_track_by_zone(self, zoned):
        assert zoned.sectors_per_track(5) == 20
        assert zoned.sectors_per_track(15) == 16
        assert zoned.sectors_per_track(25) == 12

    def test_cylinder_out_of_range(self, zoned):
        with pytest.raises(AddressError):
            zoned.zone_of_cylinder(30)
        with pytest.raises(AddressError):
            zoned.zone_of_cylinder(-1)


class TestTracks:
    def test_track_numbering_cylinder_major(self, zoned):
        assert zoned.track_of(0, 0) == 0
        assert zoned.track_of(0, 3) == 3
        assert zoned.track_of(1, 0) == 4
        assert zoned.track_location(7) == (1, 3)

    def test_track_sectors(self, zoned):
        assert zoned.track_sectors(0) == 20
        assert zoned.track_sectors(4 * 15) == 16

    def test_track_first_lba_contiguous(self, zoned):
        """Track t+1 starts right after track t ends."""
        for track in range(zoned.num_tracks - 1):
            end = zoned.track_first_lba(track) + zoned.track_sectors(track)
            assert end == zoned.track_first_lba(track + 1)

    def test_last_track_ends_at_capacity(self, zoned):
        last = zoned.num_tracks - 1
        assert (zoned.track_first_lba(last) + zoned.track_sectors(last)
                == zoned.total_sectors)

    def test_track_of_lba(self, zoned):
        for track in (0, 1, 39, 40, 119):
            first = zoned.track_first_lba(track)
            assert zoned.track_of_lba(first) == track
            assert zoned.track_of_lba(
                first + zoned.track_sectors(track) - 1) == track

    def test_track_out_of_range(self, zoned):
        with pytest.raises(AddressError):
            zoned.track_location(120)


class TestLbaChsMapping:
    def test_lba_zero(self, zoned):
        chs = zoned.lba_to_chs(0)
        assert tuple(chs) == (0, 0, 0)

    def test_round_trip_exhaustive(self, zoned):
        for lba in range(zoned.total_sectors):
            cylinder, head, sector = zoned.lba_to_chs(lba)
            assert zoned.chs_to_lba(cylinder, head, sector) == lba

    def test_chs_out_of_range(self, zoned):
        with pytest.raises(AddressError):
            zoned.chs_to_lba(0, 0, 20)  # zone 0 has 20 sectors: max 19 ok
        with pytest.raises(AddressError):
            zoned.chs_to_lba(0, 4, 0)
        with pytest.raises(AddressError):
            zoned.chs_to_lba(30, 0, 0)

    def test_lba_out_of_range(self, zoned):
        with pytest.raises(AddressError):
            zoned.lba_to_chs(zoned.total_sectors)
        with pytest.raises(AddressError):
            zoned.lba_to_chs(-1)

    @given(st.data())
    def test_round_trip_property(self, data):
        heads = data.draw(st.integers(1, 8), label="heads")
        zones = data.draw(st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 40)),
            min_size=1, max_size=4), label="zones")
        geometry = DiskGeometry(heads=heads, zones=[
            Zone(cylinder_count=c, sectors_per_track=s) for c, s in zones])
        lba = data.draw(st.integers(0, geometry.total_sectors - 1),
                        label="lba")
        cylinder, head, sector = geometry.lba_to_chs(lba)
        assert 0 <= cylinder < geometry.num_cylinders
        assert 0 <= head < heads
        assert 0 <= sector < geometry.sectors_per_track(cylinder)
        assert geometry.chs_to_lba(cylinder, head, sector) == lba


class TestExtents:
    def test_valid_extent(self, zoned):
        zoned.check_extent(0, zoned.total_sectors)

    def test_extent_overflow(self, zoned):
        with pytest.raises(AddressError):
            zoned.check_extent(zoned.total_sectors - 1, 2)

    def test_extent_zero_sectors(self, zoned):
        with pytest.raises(AddressError):
            zoned.check_extent(0, 0)
