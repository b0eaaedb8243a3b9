"""Pluggable dispatch-order control over the kernel's ready queue.

The kernel dispatches same-time events in scheduling (sequence) order.
Correct components must not *depend* on that tie-break: any total
order consistent with simulated time is a legal cooperative schedule.
Two harnesses exercise that freedom — the seeded tie-break
perturbation (:class:`~repro.sim.perturb.PerturbedSimulation`, PR 4)
and the bounded schedule explorer (:mod:`repro.sim.explore`) — and
both used to need their own queue shim.  This module is the single
override hook they now share.

:class:`ControlledReady` is a drop-in for the kernel's ready deque.
``Event.succeed``/``fail`` and zero-delay timeouts append to
``sim._ready`` directly — there is no scheduling method to hook — so
the control point wraps the queue object itself: every immediate
event goes through the policy no matter which code path scheduled
it.  Because simulated time never decreases, appends
arrive already sorted by time; the entries sharing the earliest time
form the **front group**, and the installed :class:`DispatchPolicy`
picks which member of that group dispatches next.  Cross-time ordering
is never altered — only the legal same-time tie-break is.

Only the deque operations the kernel uses are provided (truth value,
``[0]``, ``append``, ``popleft``, ``len``), and ``[0]`` always answers
with the entry ``popleft`` would return, so the kernel's
``heap[0] < ready[0]`` merge comparisons stay exact.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque
from random import Random

from repro.sim.events import Event

#: One ready-queue entry, exactly as the kernel stores it.
Entry = Tuple[float, int, Event]


class DispatchPolicy:
    """Chooses which same-time ready entry dispatches next.

    The base policy reproduces the kernel's FIFO tie-break (always the
    oldest entry), so installing it is behavior-neutral.  Subclasses
    override :meth:`choose`; :meth:`on_append` / :meth:`on_pop` exist
    so stateful policies (seeded draws, decision logs) can track queue
    membership without a second bookkeeping pass.
    """

    def on_append(self, entry: Entry) -> None:
        """Called once per entry as it enters the ready queue."""

    def on_pop(self, entry: Entry) -> None:
        """Called once per entry as it leaves the ready queue."""

    def choose(self, group: Sequence[Entry]) -> int:
        """Index of the front-group entry to dispatch next.

        ``group`` holds every queued entry at the earliest queued time,
        in arrival (= sequence) order; it always has >= 2 members (the
        singleton case never consults the policy).
        """
        return 0


class SeededShufflePolicy(DispatchPolicy):
    """Seeded-random tie-breaks: the perturbation harness's policy.

    Each entry gets one RNG draw as it is appended; the front-group
    member with the smallest ``(draw, arrival)`` key dispatches next.
    This reproduces — schedule-for-schedule, per seed — the retired
    ``_PerturbedReady`` heap keyed ``(when, draw, arrival, sequence)``:
    the front group is exactly the set of minimum-time entries, and the
    heap's global minimum over that set was the same ``(draw,
    arrival)`` minimum computed here.
    """

    __slots__ = ("_rng", "_arrivals", "_draws")

    def __init__(self, rng: Random) -> None:
        self._rng = rng
        self._arrivals = 0
        #: sequence -> (draw, arrival); sequences are unique per sim.
        self._draws: Dict[int, Tuple[float, int]] = {}

    def on_append(self, entry: Entry) -> None:
        self._arrivals += 1
        self._draws[entry[1]] = (self._rng.random(), self._arrivals)

    def on_pop(self, entry: Entry) -> None:
        self._draws.pop(entry[1], None)

    def choose(self, group: Sequence[Entry]) -> int:
        draws = self._draws
        best = 0
        best_key = draws[group[0][1]]
        for index in range(1, len(group)):
            key = draws[group[index][1]]
            if key < best_key:
                best = index
                best_key = key
        return best


class ControlledReady:
    """Drop-in for the kernel's ready deque with a pluggable tie-break.

    Entries are kept in arrival order (which is also time order — see
    the module docstring); the policy's chosen head index is memoized
    so the kernel's peek-then-pop sequences make one choice, and the
    memo is invalidated whenever an append changes the front group.
    """

    __slots__ = ("_entries", "_policy", "_head")

    def __init__(self, policy: DispatchPolicy) -> None:
        self._entries: Deque[Entry] = deque()
        self._policy = policy
        #: Memoized chosen index within the front group, or None.
        self._head: Optional[int] = None

    def append(self, item: Entry) -> None:
        self._head = None
        self._entries.append(item)
        self._policy.on_append(item)

    def _choose(self) -> int:
        head = self._head
        if head is not None:
            return head
        entries = self._entries
        front = entries[0][0]
        count = 1
        total = len(entries)
        # Appends arrive time-sorted, so the front group is the leading
        # run whose time does not exceed the head's (i.e. equals it).
        while count < total and entries[count][0] <= front:
            count += 1
        if count == 1:
            head = 0
        else:
            head = self._policy.choose([entries[i] for i in range(count)])
            if head < 0 or head >= count:
                raise IndexError(
                    f"dispatch policy chose index {head} outside the "
                    f"front group of {count}")
        self._head = head
        return head

    def peek_group(self) -> List[Entry]:
        """The same-time front group, in arrival order.

        Unlike ``[0]`` this never consults the policy — the schedule
        explorer uses it to inspect an instance's dispatch candidates
        without consuming a scheduling decision.
        """
        entries = self._entries
        if not entries:
            return []
        front = entries[0][0]
        group = [entries[0]]
        count = 1
        total = len(entries)
        while count < total and entries[count][0] <= front:
            group.append(entries[count])
            count += 1
        return group

    def popleft(self) -> Entry:
        index = self._choose()
        self._head = None
        entries = self._entries
        if index == 0:
            item = entries.popleft()
        else:
            entries.rotate(-index)
            item = entries.popleft()
            entries.rotate(index)
        self._policy.on_pop(item)
        return item

    def __getitem__(self, index: int) -> Entry:
        if index:
            raise IndexError(
                "ControlledReady exposes only the chosen head ([0])")
        return self._entries[self._choose()]

    def __bool__(self) -> bool:
        return bool(self._entries)


__all__: List[str] = [
    "ControlledReady", "DispatchPolicy", "Entry", "SeededShufflePolicy",
]
