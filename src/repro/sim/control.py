"""Pluggable dispatch-order control over the kernel's ready queue.

The kernel dispatches same-time events in scheduling (sequence) order.
Correct components must not *depend* on that tie-break: any total
order consistent with simulated time is a legal cooperative schedule.
The bounded schedule explorer (:mod:`repro.sim.explore`) exercises
that freedom through the one override hook this module provides.

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
``[0]``, ``append``, ``popleft``), and ``[0]`` always answers
with the entry ``popleft`` would return, so the kernel's
``heap[0] < ready[0]`` merge comparisons stay exact.
"""

from __future__ import annotations

from typing import Deque, List, Optional, Sequence, Tuple

from collections import deque

from repro.sim.events import Event

#: One ready-queue entry, exactly as the kernel stores it.
Entry = Tuple[float, int, Event]


class DispatchPolicy:
    """Chooses which same-time ready entry dispatches next.

    The base policy reproduces the kernel's FIFO tie-break (always the
    oldest entry), so installing it is behavior-neutral.  Subclasses
    override :meth:`choose`; :meth:`on_pop` lets a stateful policy
    count dispatches without a second bookkeeping pass.
    """

    def on_pop(self, entry: Entry) -> None:
        """Called once per entry as it leaves the ready queue."""

    def choose(self, group: Sequence[Entry]) -> int:
        """Index of the front-group entry to dispatch next.

        ``group`` holds every queued entry at the earliest queued time,
        in arrival (= sequence) order; it always has >= 2 members (the
        singleton case never consults the policy).
        """
        return 0


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


__all__: List[str] = ["ControlledReady", "DispatchPolicy", "Entry"]
