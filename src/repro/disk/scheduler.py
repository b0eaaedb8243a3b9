"""Command-queue disciplines for the simulated drive.

A :class:`~repro.disk.drive.DiskDrive` services one command at a time
and parks the rest in one of the two queues below; when a command
completes, the drive takes the next one and starts it in the same
instant.  Both queues hold plain :class:`_Command` entries — no kernel
events are involved in waiting.

:class:`PriorityQueue` is the default: lowest priority value first,
arrival order within a class (reads before write-backs before rebuild
traffic) — what Trail's §4.3 policy needs.

:class:`ElevatorQueue` adds C-LOOK: among the waiting commands of the
best priority class, service the one with the smallest target cylinder
at or beyond the head's current position, sweeping inward and wrapping
to the outermost waiter when the sweep is exhausted.  Elevator
scheduling is the classic seek-time optimization (Seltzer et al.,
"Disk Scheduling Revisited" — reference [13] of the paper) and is
offered as a substrate option for baseline experiments; Trail itself
doesn't need it because its log-disk writes never seek.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.disk.controller import _Command
from repro.disk.geometry import DiskGeometry
from repro.units import Cylinders, Ms


class PriorityQueue:
    """Waiting commands, lowest priority value first, then by arrival."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, _Command]] = []
        self._arrivals = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, command: _Command) -> None:
        heappush(self._heap,
                 (command.priority, next(self._arrivals), command))

    def next_command(self, head_cylinder: Cylinders, now: Ms) -> _Command:
        """The next command to service (the head position is unused)."""
        return heappop(self._heap)[2]

    def drain(self) -> List[_Command]:
        """Remove and return every waiting command, in service order."""
        commands = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return commands


class ElevatorQueue:
    """Waiting commands, granted in C-LOOK order within a priority class.

    Priorities still dominate: all priority-0 waiters are served (in
    elevator order) before any priority-1 waiter.  Commands headed for
    the same cylinder go in arrival order.

    ``starvation_ms`` is an optional aging knob for background
    classes: a waiter older than this is promoted to the best priority
    class so low-priority traffic (RAID rebuild at
    ``PRIORITY_REBUILD``) cannot be starved forever by a saturating
    foreground stream — the bounded-starvation idea from the
    bad-sector-scheduling literature.  ``None`` (the default) keeps
    the strict priority-first discipline.
    """

    def __init__(self, geometry: DiskGeometry,
                 starvation_ms: Optional[Ms] = None) -> None:
        self._geometry = geometry
        self._starvation_ms = starvation_ms
        #: (target cylinder, arrival number, command); the arrival
        #: number is unique, so tuple comparison never reaches the
        #: command.
        self._waiting: List[Tuple[int, int, _Command]] = []
        self._arrivals = itertools.count()

    def __len__(self) -> int:
        return len(self._waiting)

    def push(self, command: _Command) -> None:
        cylinder = self._geometry.lba_to_chs(command.lba).cylinder
        self._waiting.append((cylinder, next(self._arrivals), command))

    def _class_of(self, command: _Command, now: Ms) -> int:
        """Command priority after starvation aging (if enabled)."""
        if (self._starvation_ms is not None
                and now - command.enqueued_at >= self._starvation_ms):
            return 0
        return command.priority

    def next_command(self, head_cylinder: Cylinders, now: Ms) -> _Command:
        """The C-LOOK pick for a head sitting at ``head_cylinder``."""
        waiting = self._waiting
        best = min(self._class_of(entry[2], now) for entry in waiting)
        candidates = [entry for entry in waiting
                      if self._class_of(entry[2], now) == best]
        ahead = [entry for entry in candidates
                 if entry[0] >= head_cylinder]
        chosen = min(ahead or candidates)  # C-LOOK wrap
        waiting.remove(chosen)
        return chosen[2]

    def drain(self) -> List[_Command]:
        """Remove and return every waiting command, in arrival order."""
        commands = [entry[2] for entry in self._waiting]
        self._waiting.clear()
        return commands
