"""A power cut frees every piece of host state it took (§4.1).

Mirrors the ledger's ``crash-recover`` cycle: four clustered writers of
1 KB run for 400 simulated ms, power is cut, and a fresh driver is
remounted over the same drives, while the caller keeps every crashed
driver.  A crashed driver may keep its counters, but not the pages it
had pinned, queued or parked, nor its live records.
"""

import gc
import random
import weakref
from typing import Any, List

from repro.analysis.experiments import build_trail_system
from repro.errors import ReproError

WRITERS = 4
BURST_MS = 400.0
CYCLES = 3
SLOTS_PER_WRITER = 256


def _writer(index: int, driver: Any, rng: random.Random):
    sequence = 0
    while True:
        sequence += 1
        lba = (rng.randrange(SLOTS_PER_WRITER) * WRITERS + index) * 2
        payload = bytes([index + 1, sequence % 256]) * 512
        try:
            yield driver.write(lba, payload)
        except ReproError:
            return  # the power failed under this write


def test_crashed_drivers_pin_no_page_and_no_record():
    system = build_trail_system()
    sim = system.sim
    rngs = [random.Random(index) for index in range(WRITERS)]
    crashed: List[Any] = []
    held: List[weakref.ref] = []
    for _ in range(CYCLES):
        driver = system.driver
        for index in range(WRITERS):
            sim.process(_writer(index, driver, rngs[index]),
                        name=f"crash-writer-{index}")
        sim.run(until=sim.now + BURST_MS)
        pinned = [*driver.buffers._pages.values(),
                  *driver._live_records.values()]
        assert driver.writeback.backlog and driver._live_records, \
            "the burst left nothing queued"
        held += [weakref.ref(obj) for obj in pinned]
        del pinned
        system.crash()
        crashed.append(driver)
        sim.run(until=sim.now + 50.0)
        system.remount()
    del driver
    gc.collect()
    alive = sum(ref() is not None for ref in held)
    assert alive == 0, (f"{alive} of {len(held)} pinned pages and live "
                        f"records outlived their driver's crash")
    for driver in crashed:
        assert driver.writeback.backlog == 0
        assert driver.writeback.quiescent
        assert driver.buffers.pending_pages == 0
        assert not driver._live_records
