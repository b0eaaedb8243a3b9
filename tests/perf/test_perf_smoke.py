"""Tier-1 perf smoke: the engine scenarios work, quickly.

Every canonical scenario executes end-to-end at a tiny scale on every
tier-1 invocation.  Total budget: a couple of seconds.  Speed claims
are measured with ``make perf-ab``; the tight regression gate is the
deterministic call budgets in ``tests/perf/test_alloc_budget.py``.

When ``PERF_FLOOR`` is set (the CI perf-smoke job does this), each
scenario additionally runs at full scale and must clear a deliberately
generous absolute ops/sec floor — roughly a fifth of what the dev
container measured when the floors were set.  That catches a 5x regression on CI hardware without making
local ``make test`` runs flaky on slow or contended machines.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.perf import SCENARIOS, run_scenario

#: Small enough that the whole module stays far under the 30 s budget.
SMOKE_SCALE = 0.02

#: Absolute ops/sec floors: loose enough for shared CI runners, tight
#: enough that a 5x regression cannot slip through.  Only checked
#: under PERF_FLOOR.
FLOOR_OPS_PER_SEC = {
    "kernel-churn": 230_000.0,
    "sector-churn": 570_000.0,
    "fig3-sparse": 3_300.0,
    "tpcc-small": 170.0,
    "crash-recover": 24.0,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_at_smoke_scale(name):
    result = run_scenario(name, SMOKE_SCALE)
    assert result.scenario == name
    assert result.ops > 0
    assert result.wall_s >= 0
    assert result.ops_per_sec > 0


def test_unknown_scenario_is_rejected():
    with pytest.raises(KeyError, match="unknown perf scenario"):
        run_scenario("no-such-scenario")


@pytest.mark.skipif(not os.environ.get("PERF_FLOOR"),
                    reason="absolute floors only checked when PERF_FLOOR "
                           "is set (the CI perf-smoke job sets it)")
@pytest.mark.parametrize("name", sorted(FLOOR_OPS_PER_SEC))
def test_scenario_clears_absolute_floor(name):
    """Full-scale run clears a generous ops/sec floor (CI only)."""
    best = max((run_scenario(name) for _ in range(3)),
               key=lambda result: result.ops_per_sec)
    floor = FLOOR_OPS_PER_SEC[name]
    assert best.ops_per_sec >= floor, (
        f"{name}: {best.ops_per_sec:,.0f} ops/s is below the "
        f"{floor:,.0f} ops/s floor — a >5x regression")
