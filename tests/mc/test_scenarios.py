"""The model-checked Trail scenarios, and bugs they must catch.

Small-budget versions of what ``make mc`` runs with its full budget:
every scenario must hold its digests over a handful of schedules,
``crash-recovery`` must converge over its first schedules at the full
preemption bound, and re-introduced historical bugs, installed with
``monkeypatch``, must be caught (a checker that cannot re-find the
historical tail-chain tear proves nothing).
"""

from __future__ import annotations

import pytest

from repro.core.buffer import LiveRecord
from repro.core.driver import TrailDriver
from repro.core.recovery import RecoveryManager
from repro.mc import SCENARIOS, explore_scenario
from repro.units import LogLba


class TestScenarioCatalog:
    def test_at_least_three_scenarios(self):
        assert len(SCENARIOS) >= 3

    def test_names_and_digest_labels_are_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.explore
            assert scenario.digest_names


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
    def test_tail_chain_tear_is_caught_by_the_sanitizer(self, monkeypatch):
        """Bug corpus row 01: ``_emit_record`` publishes the live
        record before the platter write, whose yield is a context
        switch, so the record is live in a different atomic segment
        than the ``_last_record_lba`` chain link that includes it."""
        original = TrailDriver._emit_record

        def torn(self, header_lba, track, spans, total, pending):
            record = LiveRecord(sequence_id=self._next_sequence,
                                track=track, header_lba=LogLba(header_lba),
                                nsectors=total)
            self._live_records[record.sequence_id] = record
            return (yield from original(self, header_lba, track, spans,
                                        total, pending))

        monkeypatch.setattr(TrailDriver, "_emit_record", torn)
        report = explore_scenario(SCENARIOS["crash-recovery"], budget=3,
                                  preemption_bound=1)
        assert not report.ok
        assert report.failures
        assert "SanitizerError" in report.failures[0].failure
        assert "tail-chain" in report.failures[0].failure

    def test_skipped_replay_fails_the_durability_audit(self, monkeypatch):
        """Recovery that finds the chain but replays nothing leaves
        acknowledged writes off the data disk: the oracle's audit
        turns that into the schedule's failure."""
        def write_back_nothing(self, records):
            return
            yield

        monkeypatch.setattr(RecoveryManager, "_write_back",
                            write_back_nothing)
        report = explore_scenario(SCENARIOS["crash-recovery"], budget=1,
                                  preemption_bound=0)
        assert not report.ok
        assert "durability audit failed" in report.failures[0].failure
        assert "lost=[(0, " in report.failures[0].failure
