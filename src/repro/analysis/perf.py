"""Wall-clock performance scenarios.

Simulated time is free; wall-clock time is what caps how long
``make bench`` takes at the paper's run lengths and how far the
ROADMAP's beyond-paper scaling can go.  This module defines the
canonical engine scenarios that ``repro profile`` and the call-count
and peak-byte budgets (:mod:`repro.analysis.hotalloc`, checked by
``tests/perf``) run.

Scenarios (each takes a ``scale`` multiplier; ``ops`` is scenario-
specific but fixed per scenario so ops/sec comparisons are meaningful):

* ``kernel-churn``   — pure event-kernel churn: timeout yields, event
  succeed/wait cycles, and condition fan-in, no disk model at all.
* ``sector-churn``   — :class:`~repro.disk.sectors.SectorStore`
  write/read/erase mix plus ``written_extents`` scans.
* ``fig3-sparse``    — the Fig. 3 sparse synchronous-write sweep on
  the full Trail stack (ST41601N log disk + Caviar data disk).
* ``tpcc-small``     — a small seeded TPC-C run on Trail.
* ``crash-recover``  — seeded power cuts under clustered writers, each
  followed by a remount: the only scenario that runs
  ``core/recovery.py`` (and every mount after the first).

The scenario bodies are deliberately frozen: the committed call
budgets (``benchmarks/perf/BENCH_alloc.json``) were counted on exactly
this code, so a moved count measures the engine, not the scenario.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple


class PerfResult(NamedTuple):
    """Outcome of one timed scenario run."""

    scenario: str
    ops: int
    wall_s: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else float("inf")


# ----------------------------------------------------------------------
# Scenario bodies (frozen — see module docstring)


def kernel_churn(scale: float = 1.0) -> int:
    """Event-kernel churn: timeouts, succeed/wait cycles, conditions."""
    from repro.sim import Simulation

    rounds = max(1, int(40_000 * scale))
    sim = Simulation()
    ops = 0

    def ticker(count):
        for _ in range(count):
            yield sim.timeout(0.01)

    def pingpong(count):
        for _ in range(count):
            event = sim.event()
            event.succeed(None)
            yield event

    def fanin(count):
        for _ in range(count):
            yield sim.all_of([sim.timeout(0.01), sim.timeout(0.02)])

    sim.process(ticker(rounds))
    sim.process(ticker(rounds))
    sim.process(pingpong(rounds))
    sim.process(fanin(rounds))
    sim.run()
    # events processed: 2 tickers + 1 pingpong + fanin (2 timeouts + 1
    # condition) per round, ignoring per-process bookkeeping events.
    ops = rounds * 6
    return ops


def sector_churn(scale: float = 1.0) -> int:
    """SectorStore write/read/erase mix with extent scans."""
    from repro.disk.sectors import SectorStore
    from repro.units import SECTOR_SIZE

    rounds = max(1, int(12_000 * scale))
    total = 1 << 16
    store = SectorStore(total)
    one = bytes(range(256)) * (SECTOR_SIZE // 256)
    eight = one * 8
    ops = 0
    lba = 0
    for index in range(rounds):
        lba = (lba * 31 + 97) % (total - 16)
        store.write(lba, one)            # 1-sector aligned write
        store.write(lba + 1, eight)      # 8-sector aligned write
        store.write_sector(lba + 9, one)
        store.read(lba, 10)              # contiguous read across both
        store.read_sector(lba + 4)
        ops += 1 + 8 + 1 + 10 + 1
        if index % 16 == 0:
            for _run in store.written_extents():
                ops += 1
        if index % 256 == 255:
            store.erase(0, total)        # large-extent erase
            ops += 1
    return ops


def fig3_sparse(scale: float = 1.0) -> int:
    """Fig. 3 sparse-mode synchronous writes on the full Trail stack."""
    from repro.analysis.experiments import build_trail_system
    from repro.workloads import (
        ArrivalMode, SyncWriteWorkload, run_sync_write_workload)

    requests = max(10, int(150 * scale))
    system = build_trail_system()
    workload = SyncWriteWorkload(
        requests_per_process=requests,
        write_bytes=1024,
        mode=ArrivalMode.SPARSE,
        processes=2,
        seed=7)
    run_sync_write_workload(system.sim, system.driver, workload)
    return requests * 2


def tpcc_small(scale: float = 1.0) -> int:
    """A small seeded TPC-C run on the Trail system."""
    from repro.tpcc import TpccRunConfig, run_tpcc

    transactions = max(10, int(120 * scale))
    result = run_tpcc(TpccRunConfig(
        system="trail", transactions=transactions, concurrency=2, seed=11))
    return result.transactions_completed


def crash_recover(scale: float = 1.0) -> int:
    """Seeded crash + remount cycles on the full Trail stack."""
    import random

    from repro.analysis.experiments import build_trail_system
    from repro.errors import ReproError

    cycles = max(2, int(60 * scale))
    writers = 4
    system = build_trail_system()
    sim = system.sim
    rng = random.Random(7)

    def writer(index, driver):
        count = 0
        while True:
            lba = (rng.randrange(64) * writers + index) * 2
            count += 1
            try:
                yield driver.write(lba, bytes([index + 1, count % 251]) * 512)
            except ReproError:
                return  # the power failed under this write

    for _ in range(cycles):
        for index in range(writers):
            sim.process(writer(index, system.driver))
        sim.run(until=sim.now + rng.uniform(60.0, 140.0))
        system.crash()
        sim.run(until=sim.now + 50.0)
        report = system.remount()
        if report is None or report.corrupt_records or report.chain_broken:
            raise AssertionError("crash-recover: recovery lost records")
    return cycles


#: Scenario name -> callable(scale) -> ops performed.
SCENARIOS: Mapping[str, Callable[[float], int]] = MappingProxyType({
    "kernel-churn": kernel_churn,
    "sector-churn": sector_churn,
    "fig3-sparse": fig3_sparse,
    "tpcc-small": tpcc_small,
    "crash-recover": crash_recover,
})


# ----------------------------------------------------------------------
# Runner


def run_scenario(name: str, scale: float = 1.0) -> PerfResult:
    """Time one named scenario; returns ops, wall seconds, ops/sec."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown perf scenario {name!r} (known: {known})")
    func = SCENARIOS[name]
    # The perf harness is the one place wall-clock time is the point:
    # it measures the engine, not the simulation.
    start = time.perf_counter()
    ops = func(scale)
    wall = time.perf_counter() - start
    return PerfResult(scenario=name, ops=ops, wall_s=wall)
