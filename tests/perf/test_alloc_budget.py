"""Per-scenario call and allocation budgets, in every tier-1 run.

Every canonical perf scenario executes under the
``repro.analysis.hotalloc`` harness and its Python-call count and peak
traced bytes must stay inside the committed budgets
(``benchmarks/perf/BENCH_alloc.json``).

Call counts are deterministic for the seeded scenarios, so unlike a
wall-clock gate this one does not need a noise margin beyond the
budgets' own headroom.  The budgets were captured with the sanitizer
off (``hotalloc --update`` outside pytest), so the measurement unsets
the session's ``TRAILSAN``: its per-event probes are Python calls too.
"""

from __future__ import annotations

import pytest

from repro.analysis import hotalloc
from repro.analysis.hotalloc import (
    DEFAULT_BUDGET_PATH, GATE_SCALE, check_result, load_budgets,
    measure_scenario)
from repro.analysis.perf import SCENARIOS


def test_committed_budgets_are_well_formed():
    """Schema of BENCH_alloc.json."""
    budgets = load_budgets()
    assert budgets["scale"] == GATE_SCALE
    assert set(budgets["scenarios"]) == set(SCENARIOS)
    for row in budgets["scenarios"].values():
        assert set(row) == {"measured_calls", "measured_peak_bytes",
                            "max_calls", "max_peak_bytes"}
        assert 0 < row["measured_calls"] <= row["max_calls"]
        assert 0 < row["measured_peak_bytes"] <= row["max_peak_bytes"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_within_alloc_budget(name, monkeypatch):
    """A hot-path allocation regression moves the call count by
    thousands — fail with the measured-vs-budget numbers spelled out."""
    monkeypatch.delenv("TRAILSAN")
    result = measure_scenario(name)
    problems = check_result(result, load_budgets(DEFAULT_BUDGET_PATH))
    assert not problems, "; ".join(problems)


def test_update_then_check_round_trips(tmp_path, monkeypatch, capsys):
    """``--update`` writes budgets that the next plain run passes."""
    monkeypatch.delenv("TRAILSAN")
    budget = str(tmp_path / "budgets.json")
    assert hotalloc.main(["--update", "--budget", budget]) == 0
    assert hotalloc.main(["--budget", budget]) == 0
    assert f"{len(SCENARIOS)} scenarios within budget" \
        in capsys.readouterr().out
