"""Bounded systematic schedule exploration (stateless model checking).

The kernel's dispatch order is deterministic, but it is only *one* of
the legal cooperative schedules: events queued at the same simulated
time may fire in any order, and several instances interleaved through
:meth:`~repro.sim.kernel.Simulation.step` may advance in any global
order.  This module re-runs a deterministic scenario from scratch once
per schedule and systematically enumerates those choices up to a
**preemption bound**, asserting scenario-defined digests against the
canonical (all-default) run on every explored schedule.  Every
schedule under the bound runs until the budget is spent; none is
skipped as equivalent to another.

How a schedule is named
    A schedule is a sparse set of ``(position, choice)`` decisions: at
    choice point ``position`` the controller picks ``choice`` (an
    index into the candidate list); everywhere else it picks the
    default ``0``, which reproduces the kernel's FIFO tie-break and
    ``run_interleaved``'s round-robin.  The *replay horizon* is one
    past the last decided position; new schedules are generated only
    from choice points at or past a run's horizon, so no schedule is
    ever enumerated twice.  Every non-default pick costs one
    preemption; schedules are explored while their preemption count
    stays under the bound — which is also why the sparse form is
    compact: a schedule never holds more entries than the bound.

Two kinds of choice points
    ``ready``     — which member of a ready queue's same-time front
    group dispatches next (via the shared
    :class:`~repro.sim.control.ControlledReady` hook, the same one the
    seeded perturbation harness uses);
    ``instance``  — which instance steps next in an interleaved
    multi-instance run (:func:`drive_interleaved`).
    Scenarios restrict exploration to the kinds whose outcome their
    digests are invariant under.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Tuple, cast)

from repro.errors import ExplorationError, ReproError
from repro.sim.control import ControlledReady, DispatchPolicy, Entry
from repro.sim.events import Event
from repro.sim.kernel import Simulation
from repro.sim.sanitizer import TrailSanitizer

#: Choice-point kinds.
KIND_READY = "ready"
KIND_INSTANCE = "instance"


# ----------------------------------------------------------------------
# The schedule controller

@dataclass(frozen=True)
class ChoicePoint:
    """One same-time decision the controller passed during a run."""

    position: int
    kind: str
    size: int
    chosen: int
    preemptions_before: int
    #: At or past the replayed prefix: only frontier points branch.
    frontier: bool


class ScheduleController(DispatchPolicy):
    """Drives one run down a named schedule and logs its choice points.

    Doubles as the :class:`~repro.sim.control.DispatchPolicy` for every
    simulation in the run (``ready`` choice points) and as the
    instance picker for :func:`drive_interleaved` (``instance`` choice
    points); both kinds consume decisions from one stream, in
    encounter order.  Replayed positions are verified against the
    ``(kind, size)`` observed when the schedule was generated — a
    mismatch means the scenario itself is nondeterministic, which
    would invalidate the whole enumeration, so it raises immediately.
    """

    def __init__(
        self,
        decisions: Sequence[Tuple[int, int]] = (),
        *,
        expected: Sequence[Tuple[str, int]] = (),
        explore: Sequence[str] = (KIND_READY, KIND_INSTANCE),
        max_dispatches: Optional[int] = None,
    ) -> None:
        #: Sparse non-default picks, as sorted (position, choice).
        self.decisions = tuple(sorted(decisions))
        self._choices: Dict[int, int] = dict(self.decisions)
        #: One past the last decided position.  Positions below it are
        #: *replayed* (verified against ``expected``); positions at or
        #: past it are *frontier* (default pick, open to branching).
        self.replay_limit = (self.decisions[-1][0] + 1
                             if self.decisions else 0)
        #: (kind, size) signature of the generating run's choice
        #: points.  May extend past the replay horizon (branches of one
        #: run share the parent's signature tuple); only replayed
        #: positions are verified against it.
        self._expected = tuple(expected)
        self.explore = frozenset(explore)
        self.max_dispatches = max_dispatches
        #: The decision actually taken at each choice point (replayed
        #: prefix + implicit defaults), by position.
        self.executed: List[int] = []
        #: Every choice point passed, by position.
        self.points: List[ChoicePoint] = []
        self.preemptions = 0
        self.dispatched = 0

    def _decide(self, kind: str, size: int) -> int:
        if kind not in self.explore:
            return 0
        position = len(self.executed)
        frontier = position >= self.replay_limit
        if not frontier:
            choice = self._choices.get(position, 0)
            if position < len(self._expected):
                want_kind, want_size = self._expected[position]
                if want_kind != kind or want_size != size:
                    raise ExplorationError(
                        f"nondeterministic replay: choice point "
                        f"{position} was {want_kind}({want_size}) when "
                        f"scheduled but replayed as {kind}({size})")
            if choice >= size:
                raise ExplorationError(
                    f"nondeterministic replay: decision {choice} at "
                    f"choice point {position} exceeds {size} candidates")
        else:
            choice = 0
        self.executed.append(choice)
        self.points.append(ChoicePoint(
            position, kind, size, choice, self.preemptions, frontier))
        if choice:
            self.preemptions += 1
        return choice

    # -- DispatchPolicy interface (ready-queue tie-breaks) -------------

    def choose(self, group: Sequence[Entry]) -> int:
        return self._decide(KIND_READY, len(group))

    def on_pop(self, entry: Entry) -> None:
        self.dispatched += 1
        limit = self.max_dispatches
        if limit is not None and self.dispatched > limit:
            raise ExplorationError(
                f"schedule exceeded the dispatch budget ({limit}); "
                f"possible livelock")

    # -- Instance interleaving -----------------------------------------

    def pick_instance(self, sims: Sequence[Simulation]) -> int:
        """Which of the live instances steps next (default round-robin)."""
        if len(sims) < 2:
            return 0
        return self._decide(KIND_INSTANCE, len(sims))


# ----------------------------------------------------------------------
# Controlled execution helpers (used by scenario runners)

def install_controller(sim: Simulation,
                       controller: ScheduleController) -> Simulation:
    """Route ``sim``'s same-time tie-breaks through ``controller``.

    Installs a :class:`~repro.sim.control.ControlledReady` over the
    existing ready queue (any already-queued entries are preserved).
    """
    controlled = ControlledReady(controller)
    for entry in sim._ready:
        controlled.append(entry)
    sim._ready = cast("Deque[Entry]", controlled)
    return sim


def controlled_simulation(
    controller: ScheduleController,
    start_time: float = 0.0,
    *,
    sanitizer: Optional[TrailSanitizer] = None,
) -> Simulation:
    """A fresh traced simulation under ``controller``'s schedule.

    ``sanitizer`` (usually a fresh :class:`TrailSanitizer` per run)
    makes every explored schedule a ``TRAILSAN=1`` run regardless of
    the environment — the explorer's invariant assertions ride on it.
    """
    sim = Simulation(start_time)
    if sanitizer is not None:
        sim.sanitizer = sanitizer
    sim.enable_trace()
    return install_controller(sim, controller)


def drive(sim: Simulation, event: Event, *,
          max_dispatches: int = 1_000_000) -> None:
    """Step ``sim`` until ``event`` fires.

    Unlike :meth:`Simulation.run_until` this detects the two failure
    shapes the explorer must report: deadlock / lost wakeup (queues
    drained while the event is still pending) and livelock (dispatch
    budget exceeded).
    """
    steps = 0
    while not event.processed:
        if not sim.step():
            raise ExplorationError(
                "deadlock: awaited event can no longer fire "
                "(both event queues drained)")
        steps += 1
        if steps > max_dispatches:
            raise ExplorationError(
                f"awaited event still pending after {max_dispatches} "
                f"dispatches; possible livelock")


def drive_interleaved(
    controller: ScheduleController,
    runs: Sequence[Tuple[Simulation, Event]],
    *,
    max_dispatches: int = 1_000_000,
) -> None:
    """Controller-ordered twin of :func:`repro.core.instance.run_interleaved`.

    With an all-default schedule this reproduces round-robin exactly
    (step the head of the rotation, move it to the tail, drop it when
    its event fires); non-default ``instance`` decisions reorder which
    live instance steps next.
    """
    order: Deque[int] = deque(range(len(runs)))
    steps = 0
    while order:
        live = [i for i in order if not runs[i][1].processed]
        if not live:
            break
        pick = controller.pick_instance([runs[i][0] for i in live])
        index = live[pick]
        sim, target = runs[index]
        if not sim.step():
            raise ExplorationError(
                "deadlock: interleaved event can no longer fire "
                "(instance queues drained)")
        steps += 1
        if steps > max_dispatches:
            raise ExplorationError(
                f"interleaved events still pending after "
                f"{max_dispatches} dispatches; possible livelock")
        order.remove(index)
        if not target.processed:
            order.append(index)


# ----------------------------------------------------------------------
# The explorer

@dataclass
class RunResult:
    """What one schedule produced, as reported by the scenario runner.

    ``digests`` is the scenario-defined tuple of invariant digests
    (disk fingerprints, trace digests) that must be byte-identical on
    every explored schedule; ``failure`` carries a sanitizer
    violation, deadlock, or scenario error when the run broke.
    """

    digests: Tuple[str, ...]
    failure: Optional[str] = None
    note: str = ""


#: A scenario: builds a fresh world under the controller's schedule,
#: runs it to completion, and reports digests.  Must be deterministic
#: given the controller's decisions.
ScenarioRunner = Callable[[ScheduleController], RunResult]


@dataclass(frozen=True)
class ScheduleIssue:
    """A schedule that diverged from canonical or failed outright.

    ``decisions`` is the sparse schedule — the (position, choice)
    pairs that deviate from the all-default canonical run — so a
    failure can be replayed verbatim via
    ``ScheduleController(decisions)``.
    """

    decisions: Tuple[Tuple[int, int], ...]
    digests: Tuple[str, ...]
    failure: Optional[str]


@dataclass
class ExplorationStats:
    """Counters over one exploration."""

    schedules: int = 0
    choice_points: int = 0
    frontier_points: int = 0
    explored_branches: int = 0
    bound_skipped: int = 0
    max_preemptions: int = 0
    dispatches: int = 0


@dataclass
class ExplorationReport:
    """Outcome of exploring one scenario."""

    canonical: RunResult
    divergences: List[ScheduleIssue]
    failures: List[ScheduleIssue]
    stats: ExplorationStats

    @property
    def ok(self) -> bool:
        return (self.canonical.failure is None
                and not self.divergences and not self.failures)


class Explorer:
    """Depth-first bounded exploration of one scenario's schedules."""

    def __init__(
        self,
        runner: ScenarioRunner,
        *,
        preemption_bound: int = 2,
        budget: int = 500,
        max_dispatches: int = 1_000_000,
        stop_on_failure: bool = True,
        explore: Sequence[str] = (KIND_READY, KIND_INSTANCE),
    ) -> None:
        self._runner = runner
        self._bound = preemption_bound
        self._budget = budget
        self._max_dispatches = max_dispatches
        self._stop_on_failure = stop_on_failure
        #: Which choice-point kinds are enumerated.  A scenario whose
        #: digests are only invariant under one kind (e.g. the
        #: two-instance interleave explores KIND_INSTANCE while
        #: intra-sim ready ties legitimately reorder its traces)
        #: restricts exploration to that kind.
        self._explore = tuple(explore)

    def run(self) -> ExplorationReport:
        stats = ExplorationStats()
        controller, canonical = self._execute((), ())
        stats.schedules = 1
        stats.dispatches += controller.dispatched
        report = ExplorationReport(canonical, [], [], stats)
        if canonical.failure is not None:
            report.failures.append(
                ScheduleIssue((), canonical.digests, canonical.failure))
            if self._stop_on_failure:
                return report
        stack: List[Tuple[Tuple[Tuple[int, int], ...],
                          Tuple[Tuple[str, int], ...]]] = []
        self._expand(controller, stack, stats)
        while stack and stats.schedules < self._budget:
            decisions, expected = stack.pop()
            controller, result = self._execute(decisions, expected)
            stats.schedules += 1
            stats.dispatches += controller.dispatched
            if controller.preemptions > stats.max_preemptions:
                stats.max_preemptions = controller.preemptions
            if result.failure is not None:
                report.failures.append(
                    ScheduleIssue(decisions, result.digests,
                                  result.failure))
                if self._stop_on_failure:
                    return report
            elif result.digests != canonical.digests:
                report.divergences.append(
                    ScheduleIssue(decisions, result.digests, None))
            self._expand(controller, stack, stats)
        return report

    # ------------------------------------------------------------------

    def _execute(
        self,
        decisions: Tuple[Tuple[int, int], ...],
        expected: Tuple[Tuple[str, int], ...],
    ) -> Tuple[ScheduleController, RunResult]:
        controller = ScheduleController(
            decisions, expected=expected, explore=self._explore,
            max_dispatches=self._max_dispatches)
        try:
            result = self._runner(controller)
        except ReproError as exc:
            result = RunResult(
                digests=(), failure=f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            # Not a reportable failure shape: let it abort the search,
            # naming the schedule so ScheduleController(decisions)
            # replays it.
            exc.add_note(f"schedule {decisions}")
            raise
        return controller, result

    def _expand(
        self,
        controller: ScheduleController,
        stack: List[Tuple[Tuple[Tuple[int, int], ...],
                          Tuple[Tuple[str, int], ...]]],
        stats: ExplorationStats,
    ) -> None:
        """Enqueue the alternatives this run's frontier points open.

        Frontier points (position at or past the run's replay horizon)
        each spawn one branch per non-default candidate.  Every branch
        shares the parent run's full ``(kind, size)`` signature tuple —
        replay verification stops at each branch's own horizon, so the
        shared tail is inert — which keeps stack memory linear in the
        run length instead of quadratic.
        """
        points = controller.points
        stats.choice_points += len(points)
        base = controller.decisions
        signature = tuple((point.kind, point.size) for point in points)
        for point in points:
            if not point.frontier:
                continue  # replayed position
            stats.frontier_points += 1
            if point.preemptions_before >= self._bound:
                stats.bound_skipped += point.size - 1
                continue
            prefix = tuple(pair for pair in base
                           if pair[0] < point.position)
            stats.explored_branches += point.size - 1
            for candidate in range(1, point.size):
                stack.append(
                    (prefix + ((point.position, candidate),), signature))


__all__ = [
    "ChoicePoint",
    "Explorer",
    "ExplorationReport",
    "ExplorationStats",
    "KIND_INSTANCE",
    "KIND_READY",
    "RunResult",
    "ScenarioRunner",
    "ScheduleController",
    "ScheduleIssue",
    "controlled_simulation",
    "drive",
    "drive_interleaved",
    "install_controller",
]
