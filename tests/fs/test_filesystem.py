"""Tests for the mini file system, on standard and Trail devices."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.standard import StandardDriver
from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.fs import BLOCK_BYTES, FileSystem, FsError
from repro.fs.structures import Bitmap, Inode, Superblock, decode_dirents, \
    encode_dirent
from repro.sim import Simulation
from tests.conftest import cold_restart, drive_to_completion, make_tiny_drive

TOTAL_BLOCKS = 64


def standard_fs(sim):
    disk = make_tiny_drive(sim, "fs", cylinders=80, heads=4,
                           sectors_per_track=32)
    device = StandardDriver(sim, {0: disk})
    fs = drive_to_completion(
        sim, FileSystem.mkfs(sim, device, total_blocks=TOTAL_BLOCKS))
    return fs, device, disk


def trail_fs():
    sim = Simulation()
    # Longer log tracks: 4 KiB file-system blocks (9-sector records)
    # must stay small relative to a track or Trail enters the
    # large-write regime where its advantage fades (Figure 3's tail).
    log = make_tiny_drive(sim, "log", cylinders=30,
                          sectors_per_track=64)
    disk = make_tiny_drive(sim, "data", cylinders=80, heads=4,
                           sectors_per_track=32)
    config = TrailConfig(idle_reposition_interval_ms=0)
    TrailDriver.format_disk(log)
    device = TrailDriver(sim, log, {0: disk}, config)
    drive_to_completion(sim, device.mount())
    fs = drive_to_completion(
        sim, FileSystem.mkfs(sim, device, total_blocks=TOTAL_BLOCKS))
    return sim, fs, device, log, disk


class TestStructures:
    def test_superblock_round_trip(self):
        sb = Superblock(total_blocks=100, inode_blocks=1,
                        data_start=3, inode_count=64, clean=1)
        assert Superblock.decode(sb.encode()) == sb

    def test_superblock_bad_magic(self):
        with pytest.raises(FsError):
            Superblock.decode(bytes(BLOCK_BYTES))

    def test_inode_round_trip(self):
        inode = Inode(mode=1, size=12345, mtime_ms=678,
                      indirect=42, direct=list(range(12)))
        assert Inode.decode(inode.encode()) == inode

    def test_dirent_round_trip(self):
        raw = encode_dirent(7, "hello.txt") + encode_dirent(9, "z")
        assert decode_dirents(raw) == [(7, "hello.txt"), (9, "z")]

    def test_dirent_name_limits(self):
        with pytest.raises(FsError):
            encode_dirent(1, "")
        with pytest.raises(FsError):
            encode_dirent(1, "x" * 57)

    def test_bitmap(self):
        bitmap = Bitmap()
        assert bitmap.find_free(0, 100) == 0
        bitmap.set(0)
        bitmap.set(1)
        assert bitmap.find_free(0, 100) == 2
        bitmap.clear(0)
        assert bitmap.is_set(1) and not bitmap.is_set(0)
        assert bitmap.count_set(0, 10) == 1
        round_tripped = Bitmap(bitmap.encode())
        assert round_tripped.is_set(1)


class TestFileOperations:
    def test_create_write_read(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("notes.txt")
            yield from fs.write(handle, 0, b"hello world", sync=True)
            return (yield from fs.read(handle, 0, 100))

        assert drive_to_completion(sim, body()) == b"hello world"

    def test_offset_write_and_hole(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("sparse")
            yield from fs.write(handle, BLOCK_BYTES + 10, b"tail",
                                sync=True)
            data = yield from fs.read(handle, 0, BLOCK_BYTES + 14)
            return data

        data = drive_to_completion(sim, body())
        assert data[:BLOCK_BYTES + 10] == bytes(BLOCK_BYTES + 10)
        assert data[-4:] == b"tail"

    def test_overwrite_middle(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("f")
            yield from fs.write(handle, 0, b"A" * 100)
            yield from fs.write(handle, 40, b"B" * 20)
            yield from fs.fsync(handle)
            return (yield from fs.read(handle, 0, 100))

        data = drive_to_completion(sim, body())
        assert data == b"A" * 40 + b"B" * 20 + b"A" * 40

    def test_large_file_uses_indirect_blocks(self, sim):
        fs, _device, _disk = standard_fs(sim)
        payload = bytes(range(256)) * ((14 * BLOCK_BYTES) // 256)

        def body():
            handle = yield from fs.create("big")
            yield from fs.write(handle, 0, payload, sync=True)
            return (yield from fs.read(handle, 0, len(payload)))

        assert drive_to_completion(sim, body()) == payload
        assert fs._inodes[fs._root["big"]].indirect != 0xFFFFFFFF
        assert fs.check() == []

    def test_listdir_and_stat(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            a = yield from fs.create("a")
            yield from fs.create("b")
            yield from fs.write(a, 0, b"12345", sync=True)

        drive_to_completion(sim, body())
        assert fs.listdir() == ["a", "b"]
        size, _mtime = fs.stat("a")
        assert size == 5
        with pytest.raises(FsError):
            fs.stat("missing")

    def test_duplicate_create_rejected(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            yield from fs.create("dup")
            with pytest.raises(FsError):
                yield from fs.create("dup")

        drive_to_completion(sim, body())

    def test_unlink_frees_space(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("victim")
            yield from fs.write(handle, 0, bytes(8 * BLOCK_BYTES),
                                sync=True)
            used_before = fs._bitmap.count_set(0, TOTAL_BLOCKS)
            yield from fs.unlink("victim")
            used_after = fs._bitmap.count_set(0, TOTAL_BLOCKS)
            return used_before, used_after

        before, after = drive_to_completion(sim, body())
        assert after < before
        assert fs.listdir() == []
        assert fs.check() == []

    def test_fs_full(self, sim):
        fs, _device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("huge")
            with pytest.raises(FsError):
                yield from fs.write(handle, 0,
                                    bytes(TOTAL_BLOCKS * BLOCK_BYTES))

        drive_to_completion(sim, body())

    def test_open_missing(self, sim):
        fs, _device, _disk = standard_fs(sim)
        with pytest.raises(FsError):
            fs.open("ghost")


class TestMountAndDurability:
    def test_remount_sees_synced_files(self, sim):
        fs, device, _disk = standard_fs(sim)

        def body():
            handle = yield from fs.create("persist")
            yield from fs.write(handle, 0, b"durable bytes", sync=True)

        drive_to_completion(sim, body())
        second = FileSystem(sim, device)
        drive_to_completion(sim, second.mount())
        handle = second.open("persist")

        def read_back():
            return (yield from second.read(handle, 0, 64))

        assert drive_to_completion(sim, read_back()) == b"durable bytes"
        assert second.check() == []

    def test_mount_garbage_rejected(self, sim):
        disk = make_tiny_drive(sim, "raw", cylinders=80, heads=4,
                               sectors_per_track=32)
        device = StandardDriver(sim, {0: disk})
        fs = FileSystem(sim, device)
        with pytest.raises(FsError):
            drive_to_completion(sim, fs.mount())

    def test_osync_on_trail_survives_crash(self):
        """The paper's whole point at file-system level: O_SYNC writes
        acknowledged by Trail survive a power failure."""
        sim, fs, device, log, disk = trail_fs()
        written = {}

        def body():
            for index in range(6):
                name = f"file{index}"
                handle = yield from fs.create(name)
                payload = (b"content-%d " % index) * 40
                yield from fs.write(handle, 0, payload, sync=True)
                written[name] = payload

        drive_to_completion(sim, body())
        device.crash()
        sim.run(until=sim.now + 1000)

        restart = cold_restart(log, {0: disk})  # Trail recovery
        sim2 = restart.sim
        fs2 = FileSystem(sim2, restart.driver)
        drive_to_completion(sim2, fs2.mount())
        assert fs2.check() == []
        for name, payload in written.items():
            handle = fs2.open(name)

            def read_back(h=handle, n=len(payload)):
                return (yield from fs2.read(h, 0, n))

            assert drive_to_completion(sim2, read_back()) == payload

    def test_sync_writes_faster_on_trail(self, sim):
        """File-level view of Figure 3."""
        fs_std, _device, _disk = standard_fs(sim)

        def timed_writes(fs, local_sim):
            handle = yield from fs.create("bench")
            start = local_sim.now
            for index in range(10):
                yield from fs.write(handle, index * 1024,
                                    bytes([index]) * 1024, sync=True)
            return (local_sim.now - start) / 10

        std_mean = drive_to_completion(sim, timed_writes(fs_std, sim))
        trail_sim, fs_trail, _dev, _log, _disk = trail_fs()
        trail_mean = trail_sim.run_until(trail_sim.process(
            timed_writes(fs_trail, trail_sim)))
        assert trail_mean < std_mean


@settings(max_examples=12, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3 * BLOCK_BYTES),
              st.binary(min_size=1, max_size=600)),
    min_size=1, max_size=8))
def test_write_read_property(operations):
    """Arbitrary overlapping writes to one file read back like a
    bytearray model."""
    sim = Simulation()
    fs, _device, _disk = standard_fs(sim)
    model = bytearray()

    def body():
        handle = yield from fs.create("model")
        for offset, payload in operations:
            yield from fs.write(handle, offset, payload)
            if offset + len(payload) > len(model):
                model.extend(bytes(offset + len(payload) - len(model)))
            model[offset:offset + len(payload)] = payload
        yield from fs.fsync(handle)
        return (yield from fs.read(handle, 0, len(model) + 10))

    data = drive_to_completion(sim, body())
    assert data == bytes(model)
    assert fs.check() == []
