"""The command queue of the simulated drive.

A :class:`~repro.disk.drive.DiskDrive` services one command at a time
and parks the rest in a :class:`PriorityQueue`; when a command
completes, the drive takes the next one and starts it in the same
instant.  The queue holds plain :class:`_Command` entries — no kernel
events are involved in waiting.

Lowest priority value first, arrival order within a class (reads
before write-backs before rebuild traffic) — what Trail's §4.3 policy
needs.  There is no seek-ordering discipline: Trail's log-disk writes
never seek, and no experiment orders data-disk commands by position.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import List, Tuple

from repro.disk.controller import _Command


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

    def next_command(self) -> _Command:
        """Remove and return the next command to service."""
        return heappop(self._heap)[2]

    def drain(self) -> List[_Command]:
        """Remove and return every waiting command, in service order."""
        commands = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return commands
