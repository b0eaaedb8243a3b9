"""The model-checked Trail scenarios and the seeded mutations.

Small-budget versions of what ``make mc`` runs at full scale: every
scenario must hold its digests over a handful of schedules,
``crash-recovery`` must converge over its first schedules at the full
preemption bound, and the ``tail-chain-tear`` mutation must be
caught (a checker that cannot re-find the PR 4 bug proves nothing)
and must unwind cleanly when its context exits.
"""

from __future__ import annotations

import pytest

from repro.core.recovery import RecoveryManager
from repro.mc import MUTATIONS, SCENARIOS, explore_scenario, tail_chain_tear


class TestScenarioCatalog:
    def test_at_least_three_scenarios(self):
        assert len(SCENARIOS) >= 3

    def test_names_and_digest_labels_are_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.explore
            assert scenario.digest_names

    def test_mutation_registry_contains_the_tear(self):
        assert MUTATIONS["tail-chain-tear"] is tail_chain_tear


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_digests_hold_over_a_small_exploration(self, name):
        report = explore_scenario(SCENARIOS[name], budget=6,
                                  preemption_bound=1)
        assert report.ok, (report.failures or report.divergences)
        assert report.stats.schedules > 1
        assert all(report.canonical.digests)
        assert (len(report.canonical.digests)
                == len(SCENARIOS[name].digest_names))

    def test_crash_recovery_converges_at_the_full_bound(self):
        """The 17th schedule, three preemptions deep, has the shutdown
        interrupt a write-back process before its first step."""
        report = explore_scenario(SCENARIOS["crash-recovery"], budget=20,
                                  preemption_bound=3)
        assert report.ok, (report.failures or report.divergences)
        assert report.stats.schedules == 20
        assert report.stats.max_preemptions == 3


class TestMutations:
    def test_tail_chain_tear_is_caught_by_the_sanitizer(self):
        scenario = SCENARIOS["crash-recovery"]
        with tail_chain_tear():
            report = explore_scenario(scenario, budget=3,
                                      preemption_bound=1)
        assert not report.ok
        assert report.failures
        assert "SanitizerError" in report.failures[0].failure
        assert "tail-chain" in report.failures[0].failure

    def test_mutation_unwinds_cleanly(self):
        scenario = SCENARIOS["crash-recovery"]
        with tail_chain_tear():
            pass
        report = explore_scenario(scenario, budget=2,
                                  preemption_bound=1)
        assert report.ok

    def test_skipped_replay_fails_the_durability_audit(self, monkeypatch):
        """Recovery that finds the chain but replays nothing leaves
        acknowledged writes off the data disk: the oracle's audit
        turns that into the schedule's failure."""
        def replay_nothing(self, chain):
            return
            yield

        monkeypatch.setattr(RecoveryManager, "replay", replay_nothing)
        report = explore_scenario(SCENARIOS["crash-recovery"], budget=1,
                                  preemption_bound=0)
        assert not report.ok
        assert "durability audit failed" in report.failures[0].failure
        assert "lost=[(0, " in report.failures[0].failure
