"""TRAILHOT=1: per-scenario call and allocation budgets.

Every canonical perf scenario executes under the
``repro.analysis.hotalloc`` harness and its Python-call count and peak
traced bytes must stay inside the committed budgets
(``benchmarks/perf/BENCH_alloc.json``).

Call counts are deterministic for the seeded scenarios, so unlike a
wall-clock gate this one does not need a noise margin beyond the
budgets' own headroom.  The measurement (profile hook + tracemalloc)
slows the scenarios several-fold, so the gate only runs with
``TRAILHOT=1`` (``make test-checked``, which CI runs on Python 3.12);
the schema check below keeps the committed file honest in plain tier-1.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.hotalloc import (
    DEFAULT_BUDGET_PATH, GATE_SCALE, check_result, load_budgets,
    measure_scenario)
from repro.analysis.perf import SCENARIOS


def test_committed_budgets_are_well_formed():
    """Schema of BENCH_alloc.json (always on: cheap, catches drift)."""
    budgets = load_budgets()
    assert budgets["scale"] == GATE_SCALE
    assert set(budgets["scenarios"]) == set(SCENARIOS)
    for row in budgets["scenarios"].values():
        assert set(row) == {"measured_calls", "measured_peak_bytes",
                            "max_calls", "max_peak_bytes"}
        assert 0 < row["measured_calls"] <= row["max_calls"]
        assert 0 < row["measured_peak_bytes"] <= row["max_peak_bytes"]


@pytest.mark.skipif(not os.environ.get("TRAILHOT"),
                    reason="allocation budgets only gated when TRAILHOT "
                           "is set (make test-checked)")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_within_alloc_budget(name):
    """A hot-path allocation regression moves the call count by
    thousands — fail with the measured-vs-budget numbers spelled out."""
    result = measure_scenario(name)
    problems = check_result(result, load_budgets(DEFAULT_BUDGET_PATH))
    assert not problems, "; ".join(problems)
