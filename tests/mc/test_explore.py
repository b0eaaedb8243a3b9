"""The bounded explorer: sparse schedules, the bound, failure shapes.

The scenarios here are deliberately tiny — a pair of processes racing
through ``timeout(0)`` ready-queue ties — so every property of the
enumeration itself is visible: the sparse ``(position, choice)``
replay, the preemption bound, and deadlock/livelock detection.  The
real Trail scenarios ride on exactly this machinery
(``test_scenarios``).
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

import pytest

from repro.errors import ExplorationError
from repro.sim import Simulation
from repro.sim.events import Event
from repro.sim.explore import (
    KIND_INSTANCE, KIND_READY, Explorer, RunResult, ScheduleController,
    controlled_simulation, drive, drive_interleaved)

ROUNDS = 2


def _racer(sim: Simulation, log: List[str], name: str,
           rounds: int = ROUNDS) -> Generator[Event, Any, None]:
    for _ in range(rounds):
        yield sim.timeout(0)
        log.append(name)


def _race_runner(order_sensitive: bool):
    """Two processes race through same-time ready ties.

    ``order_sensitive=False`` digests a sorted view (all schedules
    agree); ``True`` digests the raw dispatch order (alternative
    schedules diverge, which the explorer must report).
    """

    def runner(controller: ScheduleController) -> RunResult:
        sim = controlled_simulation(controller)
        log: List[str] = []
        procs = [sim.process(_racer(sim, log, name), name=name)
                 for name in ("alpha", "beta")]
        drive(sim, sim.all_of(procs))
        view = log if order_sensitive else sorted(log)
        return RunResult(digests=(",".join(view),))

    return runner


class TestScheduleController:
    def test_default_schedule_has_no_replay(self):
        controller = ScheduleController()
        assert controller.decisions == ()
        assert controller.replay_limit == 0

    def test_sparse_decisions_sort_and_set_horizon(self):
        controller = ScheduleController([(7, 1), (2, 3)])
        assert controller.decisions == ((2, 3), (7, 1))
        assert controller.replay_limit == 8

    def test_replayed_points_are_not_frontier(self):
        base = ScheduleController()
        _race_runner(False)(base)
        assert len(base.points) > 2
        assert all(p.frontier for p in base.points)

        position = base.points[1].position
        expected = tuple((p.kind, p.size) for p in base.points)
        branch = ScheduleController([(position, 1)], expected=expected)
        _race_runner(False)(branch)
        assert branch.executed[position] == 1
        assert branch.preemptions == 1
        assert [p.frontier for p in branch.points[:position + 2]] == (
            [False] * (position + 1) + [True])

    def test_replay_shape_mismatch_raises(self):
        controller = ScheduleController(
            [(0, 1)], expected=[(KIND_READY, 3)])
        sim = Simulation()
        group = [(0.0, 1, sim.event()), (0.0, 2, sim.event())]
        with pytest.raises(ExplorationError, match="nondeterministic"):
            controller.choose(group)

    def test_replay_choice_out_of_range_raises(self):
        controller = ScheduleController(
            [(0, 5)], expected=[(KIND_READY, 2)])
        sim = Simulation()
        group = [(0.0, 1, sim.event()), (0.0, 2, sim.event())]
        with pytest.raises(ExplorationError, match="exceeds"):
            controller.choose(group)

    def test_unexplored_kinds_always_take_the_default(self):
        controller = ScheduleController(explore=(KIND_INSTANCE,))
        sim = Simulation()
        group = [(0.0, 1, sim.event()), (0.0, 2, sim.event())]
        assert controller.choose(group) == 0
        assert controller.points == []     # not even recorded

    def test_dispatch_budget_flags_livelock(self):
        controller = ScheduleController(max_dispatches=3)
        sim = Simulation()
        entry = (0.0, 1, sim.event())
        for _ in range(3):
            controller.on_pop(entry)
        with pytest.raises(ExplorationError, match="livelock"):
            controller.on_pop(entry)


class TestDriveHelpers:
    def test_drive_detects_deadlock(self):
        sim = Simulation()
        orphan = sim.event()   # nothing will ever succeed it
        with pytest.raises(ExplorationError, match="deadlock"):
            drive(sim, orphan)

    def test_drive_detects_livelock(self):
        sim = Simulation()

        def spinner() -> Generator[Event, Any, None]:
            while True:
                yield sim.timeout(1.0)

        sim.process(spinner(), name="spin")
        orphan = sim.event()
        with pytest.raises(ExplorationError, match="livelock"):
            drive(sim, orphan, max_dispatches=16)

    def test_drive_interleaved_zero_runs_is_a_noop(self):
        drive_interleaved(ScheduleController(), [])

    def test_drive_interleaved_detects_drained_instance(self):
        controller = ScheduleController()
        sim = Simulation()
        orphan = sim.event()
        with pytest.raises(ExplorationError, match="deadlock"):
            drive_interleaved(controller, [(sim, orphan)])


class TestExplorer:
    def test_convergent_scenario_is_clean(self):
        report = Explorer(_race_runner(False), preemption_bound=2,
                          budget=64).run()
        assert report.ok
        assert report.stats.schedules > 4
        assert report.stats.max_preemptions <= 2
        assert report.canonical.digests == ("alpha,alpha,beta,beta",)

    def test_order_sensitive_scenario_diverges(self):
        report = Explorer(_race_runner(True), preemption_bound=2,
                          budget=64).run()
        assert not report.ok
        assert report.divergences
        # Canonical round-robin alternates; divergences are the other
        # dispatch orders, never a re-report of canonical itself.
        assert report.canonical.digests == ("alpha,beta,alpha,beta",)
        seen = {issue.digests for issue in report.divergences}
        assert report.canonical.digests not in seen
        assert ("alpha,alpha,beta,beta",) in seen

    def test_divergence_replays_verbatim(self):
        report = Explorer(_race_runner(True), preemption_bound=2,
                          budget=64).run()
        issue = report.divergences[0]
        replay = _race_runner(True)(ScheduleController(issue.decisions))
        assert replay.digests == issue.digests

    def test_preemption_bound_caps_schedules(self):
        wide = Explorer(_race_runner(False), preemption_bound=3,
                        budget=256).run()
        narrow = Explorer(_race_runner(False), preemption_bound=1,
                          budget=256).run()
        assert narrow.stats.schedules < wide.stats.schedules
        assert narrow.stats.bound_skipped > 0
        assert narrow.stats.max_preemptions <= 1

    def test_budget_caps_schedules(self):
        report = Explorer(_race_runner(False), preemption_bound=3,
                          budget=5).run()
        assert report.stats.schedules == 5

    def test_runner_failure_is_reported_not_raised(self):
        def broken(controller: ScheduleController) -> RunResult:
            raise ExplorationError("synthetic deadlock")

        report = Explorer(broken, budget=8).run()
        assert not report.ok
        assert report.failures[0].decisions == ()
        assert "synthetic deadlock" in report.failures[0].failure

    def test_runner_exception_names_its_schedule(self):
        # An error outside the reportable failure shapes aborts the
        # search, carrying the decisions that replay it.
        raised_on = []

        def runner(controller: ScheduleController) -> RunResult:
            if controller.decisions:
                raised_on.append(controller.decisions)
                raise RuntimeError("scenario bug")
            return _race_runner(False)(controller)

        with pytest.raises(RuntimeError, match="scenario bug") as info:
            Explorer(runner, preemption_bound=2, budget=64).run()
        assert len(raised_on) == 1 and raised_on[0]
        assert info.value.__notes__ == [f"schedule {raised_on[0]}"]
