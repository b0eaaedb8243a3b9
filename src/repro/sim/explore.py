"""Bounded systematic schedule exploration (stateless model checking).

The kernel's dispatch order is deterministic, but it is only *one* of
the legal cooperative schedules: events queued at the same simulated
time may fire in any order, and several instances interleaved through
:meth:`~repro.sim.kernel.Simulation.step` may advance in any global
order.  This module re-runs a deterministic scenario from scratch once
per schedule and systematically enumerates those choices up to a
**preemption bound**, asserting scenario-defined digests against the
canonical (all-default) run on every explored schedule.

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

Static pruning (DPOR-style)
    An :class:`IndependenceOracle` — built by ``tools/trailmc`` from
    trailsan's yield-segmented generator CFGs — maps each *park key*
    (file, qualname, line of the suspended yield) to the read/write
    footprint of the segment that runs when the process resumes.  At a
    choice point, a candidate whose upcoming segment commutes with
    every already-kept candidate is pruned: dispatching it first is
    equivalent to some already-enumerated order.  Candidates that
    cannot be mapped to a footprint (unknown callbacks, unannotated
    code, escaping segments) conservatively conflict with everything,
    so imprecision reduces pruning, never coverage of a conflicting
    order.  The harness additionally *asserts* the scenario digests on
    every schedule it does run, so even an over-eager oracle cannot
    turn a divergent schedule into a silent pass.
"""

from __future__ import annotations

import os.path
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, FrozenSet, List, Mapping, Optional,
    Sequence, Set, Tuple, cast)

from repro.errors import ExplorationError, ReproError
from repro.sim.control import ControlledReady, DispatchPolicy, Entry
from repro.sim.events import Condition, Event
from repro.sim.kernel import Simulation
from repro.sim.process import Process
from repro.sim.sanitizer import TrailSanitizer

#: Where a suspended process will resume: (file basename, qualname,
#: line of the yield it is parked on).  Matches the key the static
#: side (``tools/trailmc``) derives from trailsan's segment model.
SegKey = Tuple[str, str, int]

#: Park key for events whose effect cannot be mapped to a generator
#: segment (non-process callbacks, finished processes, C frames).
#: Conservatively conflicts with everything.
UNKNOWN_KEY: SegKey = ("<unknown>", "<unmapped>", 0)

#: The park keys one dispatch may resume, sorted for determinism.
KeySet = Tuple[SegKey, ...]

#: Choice-point kinds.
KIND_READY = "ready"
KIND_INSTANCE = "instance"


# ----------------------------------------------------------------------
# Runtime park-key extraction

def _generator_key(generator: Any) -> SegKey:
    """Park key of the innermost suspended frame of ``generator``."""
    hops = 0
    while hops < 64:
        sub = getattr(generator, "gi_yieldfrom", None)
        if sub is None or not hasattr(sub, "gi_frame"):
            break
        generator = sub
        hops += 1
    frame = getattr(generator, "gi_frame", None)
    if frame is None:
        return UNKNOWN_KEY
    code = frame.f_code
    qualname = str(getattr(code, "co_qualname", code.co_name))
    return (os.path.basename(code.co_filename), qualname, frame.f_lineno)


def _callback_keys(callback: Callable[[Event], None], event: Event,
                   keys: Set[SegKey]) -> None:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        waiting = owner._waiting_on
        if waiting is not None and waiting is not event:
            return  # stale wakeup after an interrupt: resume is a no-op
        generator = owner._generator
        if generator is None:
            return  # the process already finished: resume is a no-op
        keys.add(_generator_key(generator))
        return
    if isinstance(owner, Condition):
        # Dispatching a child updates only condition-internal
        # bookkeeping; the condition completing is its own later
        # dispatch with its own choice point.
        return
    keys.add(UNKNOWN_KEY)


def event_keys(event: Event) -> KeySet:
    """Park keys of every process this event's dispatch resumes.

    An empty result means the dispatch is pure bookkeeping (it
    commutes with everything); a result containing ``UNKNOWN_KEY``
    conservatively conflicts with everything.
    """
    keys: Set[SegKey] = set()
    callback = event._cb1
    if callback is not None:
        _callback_keys(callback, event, keys)
    more = event._callbacks
    if more is not None:
        for callback in more:
            _callback_keys(callback, event, keys)
    return tuple(sorted(keys))


def _pending_keys(sim: Simulation) -> KeySet:
    """Union of park keys over the events ``sim`` could dispatch next."""
    keys: Set[SegKey] = set()
    ready = sim._ready
    if isinstance(ready, ControlledReady):
        for entry in ready.peek_group():
            keys.update(event_keys(entry[2]))
    elif ready:
        keys.update(event_keys(ready[0][2]))
    heap = sim._heap
    if heap:
        keys.update(event_keys(heap[0][2]))
    return tuple(sorted(keys))


# ----------------------------------------------------------------------
# Static independence relation

@dataclass(frozen=True)
class Footprint:
    """Read/write footprint of one yield segment over annotated state.

    Attribute names are qualified ``Class.attr``; ``locks`` maps an
    attribute to the lock held at *every* touch of it in this segment
    (absent means at least one bare touch).  ``escapes`` marks
    segments that may return out of the generator — the caller's
    continuation then runs in the same dispatch, so the footprint is
    incomplete and the segment conflicts with everything.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]
    locks: Mapping[str, str]
    escapes: bool = False

    def commutes_with(self, other: "Footprint") -> bool:
        """Two dispatches commute iff their footprints are disjoint
        (no write on one side meets an access on the other) or every
        conflicting attribute is commonly locked on both sides."""
        if self.escapes or other.escapes:
            return False
        conflict = ((self.writes & (other.reads | other.writes))
                    | (other.writes & (self.reads | self.writes)))
        if not conflict:
            return True
        for attr in sorted(conflict):
            lock = self.locks.get(attr)
            if lock is None or lock != other.locks.get(attr):
                return False
        return True


class IndependenceOracle:
    """Answers "do these two dispatches commute?" from static footprints.

    Built from the machine-readable output of ``tools/trailmc`` (which
    never needs to be importable at runtime — the oracle consumes
    plain data).  Unknown keys never commute, so static blind spots
    cost pruning power, not soundness of the enumeration order.
    """

    def __init__(self, segments: Mapping[SegKey, Footprint]) -> None:
        self._segments: Dict[SegKey, Footprint] = dict(segments)
        self._pair_cache: Dict[Tuple[SegKey, SegKey], bool] = {}
        #: Unique key pairs resolved via static footprints / not.
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_segments(
        cls, payload: Mapping[SegKey, Mapping[str, object]],
    ) -> "IndependenceOracle":
        """Build from plain data: key -> {reads, writes, locks, escapes}."""
        segments: Dict[SegKey, Footprint] = {}
        for key in sorted(payload):
            raw = payload[key]
            segments[key] = Footprint(
                reads=frozenset(cast(Sequence[str], raw.get("reads", ()))),
                writes=frozenset(cast(Sequence[str], raw.get("writes", ()))),
                locks=dict(cast(Mapping[str, str], raw.get("locks", {}))),
                escapes=bool(raw.get("escapes", False)),
            )
        return cls(segments)

    def __len__(self) -> int:
        return len(self._segments)

    def commutes(self, a: KeySet, b: KeySet) -> bool:
        """True when every pair of resumed segments commutes.

        An empty key set is a pure-bookkeeping dispatch and commutes
        with everything.
        """
        if not a or not b:
            return True
        for key_a in a:
            for key_b in b:
                if not self._pair(key_a, key_b):
                    return False
        return True

    def _pair(self, a: SegKey, b: SegKey) -> bool:
        pair = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(pair)
        if cached is not None:
            return cached
        if a == UNKNOWN_KEY or b == UNKNOWN_KEY:
            self.misses += 1
            result = False
        else:
            fp_a = self._segments.get(a)
            fp_b = self._segments.get(b)
            if fp_a is None or fp_b is None:
                self.misses += 1
                result = False
            else:
                self.hits += 1
                result = fp_a.commutes_with(fp_b)
        self._pair_cache[pair] = result
        return result


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
    #: Per-candidate park keys; recorded only at frontier positions
    #: (at or past the replayed prefix), else empty.
    keys: Tuple[KeySet, ...]


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
        #: past it are *frontier* (default pick, keys recorded).
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

    def _decide(self, kind: str, size: int,
                keyer: Callable[[int], KeySet]) -> int:
        if kind not in self.explore:
            return 0
        position = len(self.executed)
        keys: Tuple[KeySet, ...] = ()
        if position < self.replay_limit:
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
            keys = tuple(keyer(i) for i in range(size))
        self.executed.append(choice)
        self.points.append(ChoicePoint(
            position, kind, size, choice, self.preemptions, keys))
        if choice:
            self.preemptions += 1
        return choice

    # -- DispatchPolicy interface (ready-queue tie-breaks) -------------

    def choose(self, group: Sequence[Entry]) -> int:
        return self._decide(
            KIND_READY, len(group), lambda i: event_keys(group[i][2]))

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
        return self._decide(
            KIND_INSTANCE, len(sims), lambda i: _pending_keys(sims[i]))


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
    pruned_branches: int = 0
    bound_skipped: int = 0
    oracle_hits: int = 0
    oracle_misses: int = 0
    max_preemptions: int = 0
    dispatches: int = 0

    @property
    def naive_branches(self) -> int:
        """Branches a bound-respecting enumeration without static
        pruning would have enqueued from the same frontier points."""
        return self.explored_branches + self.pruned_branches

    @property
    def pruning_ratio(self) -> float:
        """Naive vs pruned branch count (1.0 = pruning did nothing)."""
        if self.explored_branches == 0:
            return 1.0
        return self.naive_branches / self.explored_branches


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
        oracle: Optional[IndependenceOracle] = None,
        preemption_bound: int = 2,
        budget: int = 500,
        max_dispatches: int = 1_000_000,
        stop_on_failure: bool = True,
        explore: Sequence[str] = (KIND_READY, KIND_INSTANCE),
    ) -> None:
        self._runner = runner
        self._oracle = oracle
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
                return self._finish(report)
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
                    return self._finish(report)
            elif result.digests != canonical.digests:
                report.divergences.append(
                    ScheduleIssue(decisions, result.digests, None))
            self._expand(controller, stack, stats)
        return self._finish(report)

    # ------------------------------------------------------------------

    def _finish(self, report: ExplorationReport) -> ExplorationReport:
        oracle = self._oracle
        if oracle is not None:
            report.stats.oracle_hits = oracle.hits
            report.stats.oracle_misses = oracle.misses
        return report

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
        return controller, result

    def _expand(
        self,
        controller: ScheduleController,
        stack: List[Tuple[Tuple[Tuple[int, int], ...],
                          Tuple[Tuple[str, int], ...]]],
        stats: ExplorationStats,
    ) -> None:
        """Enqueue the alternatives this run's frontier points open.

        Frontier points (position at or past the run's replay horizon,
        keys recorded) each spawn one branch per kept non-default
        candidate.  Every branch shares the parent run's full
        ``(kind, size)`` signature tuple — replay verification stops
        at each branch's own horizon, so the shared tail is inert —
        which keeps stack memory linear in the run length instead of
        quadratic.
        """
        points = controller.points
        stats.choice_points += len(points)
        base = controller.decisions
        signature = tuple((point.kind, point.size) for point in points)
        for point in points:
            if not point.keys:
                continue  # replayed (or policy-only) position
            stats.frontier_points += 1
            if point.preemptions_before >= self._bound:
                stats.bound_skipped += point.size - 1
                continue
            member = self._persistent_members(point.keys)
            prefix = tuple(pair for pair in base
                           if pair[0] < point.position)
            for candidate in range(1, point.size):
                if member[candidate]:
                    stats.explored_branches += 1
                    stack.append(
                        (prefix + ((point.position, candidate),),
                         signature))
                else:
                    stats.pruned_branches += 1

    def _persistent_members(
            self, keys: Tuple[KeySet, ...]) -> List[bool]:
        """Closure of the default candidate under static conflicts.

        Start from the default pick; repeatedly add any candidate that
        conflicts with a member.  Candidates outside the closure
        commute with every kept one, so their first-dispatch orders
        are equivalent to an enumerated order and are pruned.
        """
        size = len(keys)
        oracle = self._oracle
        if oracle is None:
            return [True] * size
        member = [False] * size
        member[0] = True
        changed = True
        while changed:
            changed = False
            for i in range(size):
                if member[i]:
                    continue
                for j in range(size):
                    if member[j] and not oracle.commutes(keys[i], keys[j]):
                        member[i] = True
                        changed = True
                        break
        return member


__all__ = [
    "ChoicePoint",
    "Explorer",
    "ExplorationReport",
    "ExplorationStats",
    "Footprint",
    "IndependenceOracle",
    "KIND_INSTANCE",
    "KIND_READY",
    "KeySet",
    "RunResult",
    "ScenarioRunner",
    "ScheduleController",
    "ScheduleIssue",
    "SegKey",
    "UNKNOWN_KEY",
    "controlled_simulation",
    "drive",
    "drive_interleaved",
    "event_keys",
    "install_controller",
]
