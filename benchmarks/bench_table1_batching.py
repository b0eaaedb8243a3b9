"""Table 1: total elapsed time for a sequence of 32 one-sector
synchronous writes as the batch size varies from 1 to 32.

Paper numbers (ms): batch 1 -> 129.9, 2 -> 69.6, 4 -> 33.1, 8 -> 17.7,
16 -> 10.9, 32 -> 8.4 — a ~15x spread between the extremes, because
each physical log write pays a repositioning delay and a
write-after-write command delay that batching amortizes.

The experiment submits the 32 writes in groups of ``batch``: all
requests of a group arrive at once (so Trail's interrupt-time batching
coalesces them into one record), and the next group is submitted when
the previous group completes.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis import build_trail_system

BATCH_SIZES = [1, 2, 4, 8, 16, 32]
TOTAL_WRITES = 32
PAPER_MS = {1: 129.9, 2: 69.6, 4: 33.1, 8: 17.7, 16: 10.9, 32: 8.4}


def run_batched_sequence(batch: int) -> float:
    system = build_trail_system()
    sim, driver = system.sim, system.driver

    def body():
        started = sim.now
        submitted = 0
        while submitted < TOTAL_WRITES:
            group = [
                driver.write((submitted + index) * 64, bytes(512))
                for index in range(min(batch, TOTAL_WRITES - submitted))
            ]
            submitted += len(group)
            yield sim.all_of(group)
        return sim.now - started

    return sim.run_until(sim.process(body(), name=f"batch-{batch}"))


@pytest.fixture(scope="module")
def elapsed() -> Dict[int, float]:
    return {batch: run_batched_sequence(batch) for batch in BATCH_SIZES}


def test_table1_report(elapsed, paper_numbers):
    paper_numbers.check(
        "table1",
        ["batch size", "measured (ms)", "paper (ms)",
         "speedup vs batch 1 (x)"],
        [[batch, elapsed[batch], PAPER_MS[batch],
          elapsed[1] / elapsed[batch]] for batch in BATCH_SIZES],
        title=("Table 1: elapsed time for 32 one-sector synchronous "
               "writes vs batch size"))


def test_elapsed_monotonically_decreasing(elapsed):
    values = [elapsed[batch] for batch in BATCH_SIZES]
    for smaller, larger in zip(values, values[1:]):
        assert larger <= smaller * 1.05  # allow sub-5% noise


def test_extreme_ratio_matches_paper_order(elapsed):
    """Paper: a factor of ~15 between batch 1 and batch 32."""
    ratio = elapsed[1] / elapsed[32]
    assert ratio > 5.0, f"expected a large batching win, got {ratio:.1f}x"


def test_batch1_dominated_by_per_write_overheads(elapsed):
    """At batch 1 every write pays reposition + command overhead; the
    per-write cost must far exceed the bare transfer time (~0.12 ms)."""
    per_write = elapsed[1] / TOTAL_WRITES
    assert per_write > 1.8


def test_batch32_close_to_single_write_cost(elapsed):
    """At batch 32 the sequence is a single physical write of 33
    sectors: transfer (~4 ms) + one command overhead + bounded
    rotational wait."""
    assert elapsed[32] < 12.0
