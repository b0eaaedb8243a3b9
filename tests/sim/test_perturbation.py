"""Schedule-perturbation tests: tie-break order must not change state.

The kernel breaks same-time ties in scheduling order; nothing in the
stack may *depend* on that. ``PerturbedSimulation`` re-breaks the ties
with a seeded RNG, exploring a different legal cooperative schedule
per seed.  The core assertion: concurrent LBA-disjoint writers through
the full Trail stack leave **byte-identical data-disk images** under
every tie-break permutation — the unique correct end state, reached
regardless of how same-time events interleave.

(The TPC-C workload is deliberately *not* used here: under a different
tie-break order the lock manager admits a different — equally valid —
serializable history, so its disk image legitimately differs.  The
writers below have one correct outcome, which is what makes the
byte-identical assertion meaningful.)
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import pytest

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.disk.drive import DiskDrive
from repro.disk.presets import tiny_test_disk
from repro.sim import Event, PerturbedSimulation, Simulation

from tests.conftest import drive_to_completion

PERTURBATION_SEEDS = (0, 1, 2, 3, 4)

SECTOR = 512
WRITERS = 4
ROUNDS = 6
#: Sectors per write; writers are spaced far enough apart that their
#: extents never overlap (disjoint LBA ranges -> unique final image).
STRIDE = 64


def _payload(writer: int, round_no: int, nsectors: int) -> bytes:
    seed = (writer * 251 + round_no * 13) % 256
    return bytes((seed + i) % 256 for i in range(nsectors * SECTOR))


def _build_trail(sim: Simulation) -> Tuple[TrailDriver, Dict[int, DiskDrive]]:
    log_drive = tiny_test_disk(cylinders=30).make_drive(sim, "log")
    data = {
        disk_id: tiny_test_disk(
            cylinders=80, heads=4, sectors_per_track=32,
        ).make_drive(sim, f"data{disk_id}")
        for disk_id in range(2)
    }
    config = TrailConfig(idle_reposition_interval_ms=0)
    TrailDriver.format_disk(log_drive)
    driver = TrailDriver(sim, log_drive, data, config)
    drive_to_completion(sim, driver.mount(), name="mount")
    return driver, data


def _writer(sim: Simulation, driver: TrailDriver, writer: int,
            ) -> Generator[Event, Any, None]:
    disk_id = writer % 2
    base = writer * STRIDE * ROUNDS
    for round_no in range(ROUNDS):
        nsectors = 1 + (writer + round_no) % 3
        lba = base + round_no * STRIDE
        yield driver.write(lba, _payload(writer, round_no, nsectors),
                           disk_id=disk_id)
        if round_no % 2 == writer % 2:
            # Interleave reads so the read-overlay path runs too.
            yield driver.read(lba, nsectors, disk_id=disk_id)


def _run_workload(sim: Simulation) -> Dict[str, Dict[int, bytes]]:
    driver, data = _build_trail(sim)

    def main() -> Generator[Event, Any, None]:
        done = [sim.process(_writer(sim, driver, w), name=f"w{w}")
                for w in range(WRITERS)]
        yield sim.all_of(done)
        yield from driver.flush()
        yield from driver.clean_shutdown()

    drive_to_completion(sim, main(), name="workload")
    return {name: drive.store.snapshot()
            for name, drive in sorted(
                (d.name, d) for d in data.values())}


def _expected_image() -> Dict[int, Dict[int, bytes]]:
    """disk_id -> {lba: sector} the workload must leave behind."""
    images: Dict[int, Dict[int, bytes]] = {0: {}, 1: {}}
    for writer in range(WRITERS):
        disk_id = writer % 2
        base = writer * STRIDE * ROUNDS
        for round_no in range(ROUNDS):
            nsectors = 1 + (writer + round_no) % 3
            data = _payload(writer, round_no, nsectors)
            for sector in range(nsectors):
                images[disk_id][base + round_no * STRIDE + sector] = \
                    data[sector * SECTOR:(sector + 1) * SECTOR]
    return images


def test_perturbation_changes_dispatch_order() -> None:
    """Sanity: different seeds really do explore different schedules."""
    traces: List[Tuple[Tuple[float, int], ...]] = []
    for seed in (0, 1):
        sim = PerturbedSimulation(seed=seed)
        trace = sim.enable_trace()
        _run_workload(sim)
        traces.append(tuple(trace))
    assert traces[0] != traces[1]


def test_same_seed_is_reproducible() -> None:
    assert _run_workload(PerturbedSimulation(seed=3)) == \
        _run_workload(PerturbedSimulation(seed=3))


@pytest.mark.parametrize("seed", PERTURBATION_SEEDS)
def test_disjoint_writers_end_state_matches_unperturbed(seed: int) -> None:
    """Every tie-break permutation must reach the one correct image."""
    baseline = _run_workload(Simulation())
    perturbed = _run_workload(PerturbedSimulation(seed=seed))
    assert perturbed == baseline


def test_end_state_is_the_logically_written_data() -> None:
    """The shared image is not just stable but *correct*."""
    snapshots = _run_workload(PerturbedSimulation(seed=0))
    expected = _expected_image()
    for disk_id, name in ((0, "data0"), (1, "data1")):
        image = snapshots[name]
        for lba, sector in expected[disk_id].items():
            assert image.get(lba) == sector, \
                f"disk {disk_id} lba {lba} diverged"
