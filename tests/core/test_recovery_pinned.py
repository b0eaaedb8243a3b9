"""Recovery outcomes pinned from the commit *before* the recovery edit.

PR 17 rewrote how ``core/recovery.py`` spends host time (header-first
track scan, one buffer per replayed record, an arithmetic track ring
instead of a materialised track list) under the promise that nothing
modelled moves.  These scenarios were captured on the parent commit
(56ede07) by running ``python tests/core/test_recovery_pinned.py`` there
and pasting the output into ``PINNED``; they pass unchanged afterwards.
``wrapped_log`` got its short ring from a reserved-tracks setting that
no longer exists; it now runs on a two-cylinder log drive instead, and
its entry was re-captured the same way on the commit before that
setting was removed (0c32c6f).  The two ``unreadable_*`` scenarios
attach a fault plan to the log drive; their remount event counts and
traces were re-captured when the drive began to sleep each segment in
one timeout with an injector attached too (fewer events); every other
field of theirs, the ``*_ms`` reprs included, held.

Each scenario runs seeded 1 KB writers on the default drives
(``build_trail_system()``: ST41601N log disk, WD Caviar data disk),
cuts the power, optionally damages the log disk, remounts, and pins

* every :class:`~repro.core.recovery.RecoveryReport` field (floats by
  ``repr``, the pending chain as the sha256 of its ``(header_lba,
  sequence, batch)`` list),
* the sha256 of the log-disk and data-disk images after the remount,
* the digest of the remount's ``(time, sequence)`` dispatch trace.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.analysis.experiments import build_trail_system
from repro.core.instance import _digest_trace
from repro.disk.presets import st41601n
from repro.errors import ReproError
from repro.faults import FaultPlan

SECTOR = 512
WRITERS = 4
SLOTS_PER_WRITER = 48


def crashed_system(seed, burst_ms, gap_ms, log_spec=None):
    """Seeded closed-loop writers for ``burst_ms``, then a power cut.

    Returns ``(system, tail_track)``: the log track the allocator was
    filling when the power went.
    """
    system = build_trail_system(log_spec=log_spec)
    sim = system.sim
    driver = system.driver

    def writer(index):
        rng = random.Random(seed * 1000 + index)
        count = 0
        while True:
            lba = (rng.randrange(SLOTS_PER_WRITER) * WRITERS + index) * 2
            count += 1
            payload = bytes([index + 1, count % 251]) * SECTOR
            try:
                yield driver.write(lba, payload)
            except ReproError:
                return  # the power failed under this write
            if gap_ms:
                yield sim.timeout(rng.uniform(0.0, gap_ms))

    for index in range(WRITERS):
        sim.process(writer(index), name=f"pinned-writer-{index}")
    sim.run(until=sim.now + burst_ms)
    tail_track = driver.allocator.current_track
    system.crash()
    return system, tail_track


def image_sha256(drive):
    """Digest of every written extent of one drive's platter."""
    digest = hashlib.sha256()
    store = drive.store
    for lba, nsectors in store.written_extents():
        digest.update(lba.to_bytes(8, "big"))
        digest.update(nsectors.to_bytes(4, "big"))
        digest.update(store.read(lba, nsectors))
    return digest.hexdigest()


def recover(system):
    """Settle, remount under a dispatch trace; (report, what is pinned)."""
    sim = system.sim
    sim.run(until=sim.now + 50.0)
    trace = sim.enable_trace()
    start = len(trace)
    report = system.remount()
    observed = {}
    for spec in dataclasses.fields(report):
        value = getattr(report, spec.name)
        if spec.name == "pending":
            chain = [(located.header_lba, located.header.sequence_id,
                      located.header.batch_size) for located in value]
            value = hashlib.sha256(repr(chain).encode()).hexdigest()
        elif isinstance(value, float):
            value = repr(value)
        elif spec.name == "dropped_sectors":
            value = [tuple(pair) for pair in value]
        observed[spec.name] = value
    observed["log_sha256"] = image_sha256(system.log_drive)
    observed["data_sha256"] = image_sha256(system.data_drives[0])
    observed["remount_trace"] = _digest_trace(trace[start:])
    observed["remount_events"] = len(trace) - start
    return report, observed


def flip_bit(drive, lba, byte_index, mask):
    sector = bytearray(drive.store.read_sector(lba))
    sector[byte_index] ^= mask
    drive.store.write_sector(lba, bytes(sector))


def first_blank_sector(drive, track):
    """A never-written sector of ``track`` (damage that hits no record)."""
    first = drive.geometry.track_first_lba(track)
    for lba in range(first, first + drive.geometry.track_sectors(track)):
        if drive.store.read_sector(lba) == bytes(SECTOR):
            return lba
    raise AssertionError(f"track {track} has no blank sector")


# ----------------------------------------------------------------------
# Scenarios


def empty_log():
    """Crash before the first write: nothing to locate."""
    system = build_trail_system()
    system.crash()
    return recover(system)[1]


def clean_tail():
    """Power cut in a gap between writes: the youngest record is whole."""
    system, _tail = crashed_system(seed=1, burst_ms=120.0, gap_ms=6.0)
    return recover(system)[1]


def torn_youngest():
    """Power cut inside a log write: the youngest record is torn."""
    system, _tail = crashed_system(seed=2, burst_ms=90.3, gap_ms=0.0)
    return recover(system)[1]


def wrapped_log():
    """A two-cylinder ST41601N log (34 tracks, a 30-track ring) on its
    second lap."""
    full = st41601n()
    spec = dataclasses.replace(full, zones=(
        dataclasses.replace(full.zones[0], cylinder_count=2),))
    system, _tail = crashed_system(seed=3, burst_ms=600.0, gap_ms=0.0,
                                   log_spec=spec)
    allocator = system.driver.allocator
    assert allocator.tracks_consumed > allocator.track_count
    return recover(system)[1]


def flipped_payload_bit():
    """One bit of a pending record's payload flips on the platter."""
    probe, _tail = crashed_system(seed=4, burst_ms=60.0, gap_ms=0.0)
    pending = recover(probe)[0].pending
    header_lba = pending[len(pending) // 2].header_lba
    system, _tail = crashed_system(seed=4, burst_ms=60.0, gap_ms=0.0)
    flip_bit(system.log_drive, header_lba + 1, 200, 0x10)
    return recover(system)[1]


def flipped_header_bit():
    """One bit of a pending record's *header* flips: the chain breaks."""
    probe, _tail = crashed_system(seed=5, burst_ms=60.0, gap_ms=0.0)
    pending = recover(probe)[0].pending
    header_lba = pending[len(pending) // 2].header_lba
    system, _tail = crashed_system(seed=5, burst_ms=60.0, gap_ms=0.0)
    flip_bit(system.log_drive, header_lba, 40, 0x01)
    return recover(system)[1]


def unreadable_blank_sector():
    """A latent-bad blank sector on the tail track: the track scan falls
    back to sector-by-sector reads and still finds every record."""
    system, tail = crashed_system(seed=6, burst_ms=80.0, gap_ms=2.0)
    bad = first_blank_sector(system.log_drive, tail)
    system.log_drive.attach_faults(
        FaultPlan(latent_bad_sectors={bad}, retry_limit=0))
    return recover(system)[1]


def unreadable_payload_sector():
    """A latent-bad payload sector of a pending record: never replayed,
    always reported."""
    probe, _tail = crashed_system(seed=7, burst_ms=80.0, gap_ms=2.0)
    header_lba = recover(probe)[0].pending[0].header_lba
    system, _tail = crashed_system(seed=7, burst_ms=80.0, gap_ms=2.0)
    system.log_drive.attach_faults(
        FaultPlan(latent_bad_sectors={header_lba + 2}, retry_limit=0))
    return recover(system)[1]


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (empty_log, clean_tail, torn_youngest, wrapped_log,
                     flipped_payload_bit, flipped_header_bit,
                     unreadable_blank_sector, unreadable_payload_sector)}

PINNED = {
    "clean_tail": {
        "chain_broken": False,
        "corrupt_records": 0,
        "data_sha256":
            "8303c54ffada006dd53212af8a87b4616d7d019cfa95f236661d971ec2a3b2f8",
        "data_writes_issued": 60,
        "dropped_sectors": [],
        "locate_ms": "383.69565217391306",
        "log_sha256":
            "0b9a1048813e1115e5ca5c5d6ff622de8dd196a59d6ce4b1682cc9d1949b1326",
        "pending":
            "7464c262371702676ce60e777bdb6d8803cdbde74b2081eda548c661301374af",
        "rebuild_ms": "339.37198067632835",
        "records_found": 40,
        "remount_events": 328,
        "remount_trace":
            "fecbfbeb093f9b273baaefebc9b16b82dc8b79492ab61d7052aa8259eff1e1c9",
        "sectors_replayed": 120,
        "torn_records_dropped": 0,
        "tracks_scanned": 16,
        "unreadable_sectors": 0,
        "writeback_ms": "723.6352657004832",
        "writeback_performed": True,
        "youngest_sequence": 46,
    },
    "empty_log": {
        "chain_broken": False,
        "corrupt_records": 0,
        "data_sha256":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "data_writes_issued": 0,
        "dropped_sectors": [],
        "locate_ms": "21.980676328502398",
        "log_sha256":
            "8afb5cc6f02f87427e0bd28f1d7d7938cdc9ad40781fadc489c4bc3875d558da",
        "pending":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "rebuild_ms": "0.0",
        "records_found": 0,
        "remount_events": 17,
        "remount_trace":
            "a36e7fb158843d80dbf91a73fa4ca0963c4e658ba156f79ce0e4d54f64c3d27f",
        "sectors_replayed": 0,
        "torn_records_dropped": 0,
        "tracks_scanned": 1,
        "unreadable_sectors": 0,
        "writeback_ms": "0.0",
        "writeback_performed": False,
        "youngest_sequence": None,
    },
    "flipped_header_bit": {
        "chain_broken": True,
        "corrupt_records": 1,
        "data_sha256":
            "e295485c7368c82e6b99db23aff5e3f2e107d4b15b390e717c3befbafb402518",
        "data_writes_issued": 27,
        "dropped_sectors": [
            (0, 150), (0, 151), (0, 336), (0, 337), (0, 354), (0, 355),
            (0, 380), (0, 381),
        ],
        "locate_ms": "402.05314009661834",
        "log_sha256":
            "742804d95c513db0d4ad0792c2bf55b2ef4af8e760aaed847f305fc5aefc5441",
        "pending":
            "5b5d996ac8392e544957eef793eec5970a6d57856b6b7a5c677bca94b874d955",
        "rebuild_ms": "51.932367149758534",
        "records_found": 7,
        "remount_events": 136,
        "remount_trace":
            "a04330839500e9133c577208579620aed9da728a20f353a640eb5aaccfdc3ac8",
        "sectors_replayed": 56,
        "torn_records_dropped": 1,
        "tracks_scanned": 16,
        "unreadable_sectors": 0,
        "writeback_ms": "223.10628019323667",
        "writeback_performed": True,
        "youngest_sequence": 16,
    },
    "flipped_payload_bit": {
        "chain_broken": False,
        "corrupt_records": 1,
        "data_sha256":
            "5d18e1a3c12421e3a996d74858f508623e94694864b024d0d74a818948d80bc0",
        "data_writes_issued": 59,
        "dropped_sectors": [
            (0, 94), (0, 95), (0, 148), (0, 149), (0, 160), (0, 161),
            (0, 242), (0, 243), (0, 294), (0, 295), (0, 346), (0, 347),
        ],
        "locate_ms": "402.05314009661834",
        "log_sha256":
            "cdcabebf5fb6726559f5c4634cab0824b825f6110355f9eb2ef932447dcfcfa7",
        "pending":
            "b9bdcfb26d5c5f0019d3bbb2eeee6f8e974c03fa2bbd982ee13bb6ad6a39ac12",
        "rebuild_ms": "113.28502415458934",
        "records_found": 16,
        "remount_events": 234,
        "remount_trace":
            "88834877c851f27537afbd6e5e8b8da82561fd0a5d0adea63290c6147e15b641",
        "sectors_replayed": 120,
        "torn_records_dropped": 1,
        "tracks_scanned": 16,
        "unreadable_sectors": 0,
        "writeback_ms": "517.3091787439614",
        "writeback_performed": True,
        "youngest_sequence": 16,
    },
    "torn_youngest": {
        "chain_broken": False,
        "corrupt_records": 0,
        "data_sha256":
            "39cb8dc73c688e23f2b0f10d69d8df1f1b949f082ea4cbe2d907da5e87349f78",
        "data_writes_issued": 95,
        "dropped_sectors": [
            (0, 38), (0, 39), (0, 188), (0, 189), (0, 242), (0, 243),
            (0, 320), (0, 321),
        ],
        "locate_ms": "410.024154589372",
        "log_sha256":
            "f1d9ec9cd546b0ced870ce70565667b42398520eea5326784eeae18dcf8641ea",
        "pending":
            "a6860d48c49facbd2c56c791354d885e62d318296128113015913b3ec384185f",
        "rebuild_ms": "174.63768115942025",
        "records_found": 24,
        "remount_events": 338,
        "remount_trace":
            "a99b55edc32dbc9beff580b4f4e7b37be64ae077a803a1ede320ff7c1432825c",
        "sectors_replayed": 192,
        "torn_records_dropped": 1,
        "tracks_scanned": 16,
        "unreadable_sectors": 0,
        "writeback_ms": "775.7632850241544",
        "writeback_performed": True,
        "youngest_sequence": 25,
    },
    "unreadable_blank_sector": {
        "chain_broken": False,
        "corrupt_records": 0,
        "data_sha256":
            "5531f0bc21d4c573a155be7b88f3f34fa45c78261d8f7679f0192779c4ff0979",
        "data_writes_issued": 54,
        "dropped_sectors": [],
        "locate_ms": "1423.0676328502416",
        "log_sha256":
            "ff91be2632dbd28bb45c604dcde0827cd66d7524aa350254ba1808ad2c1eb789",
        "pending":
            "64059e0c2f31634f4721893b0ea32322c56672bb81f1aa0577ed8a2744bd5a97",
        "rebuild_ms": "221.25603864734285",
        "records_found": 27,
        "remount_events": 448,
        "remount_trace":
            "4934e0096d389e154f128c9c49100805e96702c0c7df35f226fb5cfbb6812cbc",
        "sectors_replayed": 108,
        "torn_records_dropped": 0,
        "tracks_scanned": 16,
        "unreadable_sectors": 1,
        "writeback_ms": "609.7681159420288",
        "writeback_performed": True,
        "youngest_sequence": 30,
    },
    "unreadable_payload_sector": {
        "chain_broken": False,
        "corrupt_records": 1,
        "data_sha256":
            "9120f48d07e0bbdcf42b0e8f0962569eddd15483a5da2580c2191148c82e5e4a",
        "data_writes_issued": 47,
        "dropped_sectors": [
            (0, 156), (0, 157), (0, 358), (0, 359),
        ],
        "locate_ms": "389.7342995169082",
        "log_sha256":
            "e05ab169cf703be08e428d88e3e85d14557b9abb678a6235d95e51d5a5f570a0",
        "pending":
            "def3baa83aaf77634e23e22f421d05929a060e1527889863eca05e94930eadca",
        "rebuild_ms": "204.83091787439605",
        "records_found": 25,
        "remount_events": 242,
        "remount_trace":
            "9e1ef9c4767d2e28fd44a378f1664d166e0cd32c617ba1b9aa68a87c277d81fe",
        "sectors_replayed": 94,
        "torn_records_dropped": 0,
        "tracks_scanned": 16,
        "unreadable_sectors": 1,
        "writeback_ms": "484.1932367149759",
        "writeback_performed": True,
        "youngest_sequence": 30,
    },
    "wrapped_log": {
        "chain_broken": False,
        "corrupt_records": 0,
        "data_sha256":
            "1fc0598c26141c129c5d809bdcd00b24adb91fc41ef1c478fcd4745d707e39b2",
        "data_writes_issued": 475,
        "dropped_sectors": [],
        "locate_ms": "140.70048309178742",
        "log_sha256":
            "b3091b4caf857bbec0b4ad80c6c0a6cd65343f017a4e49fb7b7351551a622a6c",
        "pending":
            "82562032a936168eb2a1bbdef6c4be322d37e9980bff92df7c1eff3f1b0b98c6",
        "rebuild_ms": "923.9130434782608",
        "records_found": 120,
        "remount_events": 1458,
        "remount_trace":
            "7418716ca2f3585502d434a0f440c5e8fc4c1cd13d2b2c8ef8e13241ae4aa963",
        "sectors_replayed": 960,
        "torn_records_dropped": 0,
        "tracks_scanned": 6,
        "unreadable_sectors": 0,
        "writeback_ms": "4007.3671497584537",
        "writeback_performed": True,
        "youngest_sequence": 147,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_matches_the_parent_commit(name):
    observed = SCENARIOS[name]()
    expected = PINNED[name]
    assert set(observed) == set(expected)
    for key in expected:
        assert observed[key] == expected[key], (
            f"{name}: {key} moved from the pinned value")


def test_scenarios_reach_what_their_names_say():
    """The pins are only worth keeping while each scenario still drives
    the branch it was written for."""
    assert PINNED["empty_log"]["youngest_sequence"] is None
    assert PINNED["clean_tail"]["torn_records_dropped"] == 0
    assert PINNED["clean_tail"]["records_found"] > 0
    assert PINNED["torn_youngest"]["torn_records_dropped"] == 1
    assert PINNED["wrapped_log"]["records_found"] > 0
    assert PINNED["flipped_payload_bit"]["corrupt_records"] == 1
    assert PINNED["flipped_payload_bit"]["dropped_sectors"]
    assert PINNED["flipped_header_bit"]["chain_broken"]
    assert PINNED["unreadable_blank_sector"]["unreadable_sectors"] == 1
    assert PINNED["unreadable_blank_sector"]["corrupt_records"] == 0
    assert PINNED["unreadable_payload_sector"]["corrupt_records"] == 1
    for name in PINNED:
        if name != "empty_log":
            assert PINNED[name]["tracks_scanned"] >= 2


if __name__ == "__main__":  # capture: run on the parent commit
    import pprint
    pprint.pprint({name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
                  width=78, sort_dicts=True)
