"""Runtime atomicity sanitizer (the dynamic half of trailsan).

The static pass (``tools/trailsan``) proves the *code shape* keeps
annotated invariants inside one atomic segment; this module checks the
*values* at runtime.  When the ``TRAILSAN`` environment variable is
set (to anything but ``0``), :class:`~repro.sim.kernel.Simulation`
creates a :class:`TrailSanitizer` and calls :meth:`TrailSanitizer.check`
after **every** dispatched event — i.e. at every point where control
can switch between processes.  Components register their declared
atomic groups at construction time; a group observed torn at a context
switch raises :class:`~repro.errors.SanitizerError` immediately, with
the simulated time and the violated invariant in the message.

The test suite sets ``TRAILSAN=1`` for every session
(``tests/conftest.py``), so tier-1 runs every simulation checked.
Benchmarks, the CLI and the examples leave it unset: the per-event
checks halve the throughput of the TPC-C perf scenario.

Two registration forms cover the annotated groups:

* :meth:`TrailSanitizer.add_invariant` — a stateless predicate over
  current values (e.g. ``pinned_bytes`` must equal the sum of pinned
  page sizes).
* :meth:`TrailSanitizer.add_transition` — a ``probe`` snapshots a
  value tuple at every context switch and a ``judge`` compares the
  previous snapshot with the new one (e.g. a record may enter the
  live tail only in the same segment that moves the chain link).

The sanitizer deliberately has no effect on event ordering or timing:
it only *reads* state, so a ``TRAILSAN=1`` run replays the exact same
schedule as a plain run.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import SanitizerError

#: A stateless invariant: returns None when healthy, else a message.
Invariant = Callable[[], Optional[str]]
#: Snapshots the watched values at a context switch.
Probe = Callable[[], Tuple[object, ...]]
#: Compares consecutive snapshots: None when healthy, else a message.
Judge = Callable[[Tuple[object, ...], Tuple[object, ...]], Optional[str]]


class _InvariantGroup:
    __slots__ = ("name", "invariant", "owner")

    def __init__(self, name: str, invariant: Invariant) -> None:
        self.name = name
        self.invariant = invariant
        #: The object whose state is checked (see ``retire``).
        self.owner: object = getattr(invariant, "__self__", None)

    def verify(self) -> Optional[str]:
        return self.invariant()


class _TransitionGroup:
    __slots__ = ("name", "probe", "judge", "owner", "_last")

    def __init__(self, name: str, probe: Probe, judge: Judge) -> None:
        self.name = name
        self.probe = probe
        self.judge = judge
        self.owner: object = getattr(probe, "__self__", None)
        self._last: Optional[Tuple[object, ...]] = None

    def verify(self) -> Optional[str]:
        snapshot = self.probe()
        last = self._last
        self._last = snapshot
        if last is None or last == snapshot:
            return None
        return self.judge(last, snapshot)


class TrailSanitizer:
    """Checks declared atomic groups at every context switch."""

    def __init__(self) -> None:
        self._groups: List[Union[_InvariantGroup, _TransitionGroup]] = []
        self._verifiers: List[Callable[[], Optional[str]]] = []
        #: Context switches inspected (for tests and smoke reporting).
        self.checks = 0
        #: Group registrations, by name (duplicates allowed: several
        #: drivers in one sim each register their own instance).
        self.group_names: List[str] = []

    def add_invariant(self, name: str, invariant: Invariant) -> None:
        """Register a stateless invariant checked at every switch."""
        group = _InvariantGroup(name, invariant)
        self._groups.append(group)
        self._verifiers.append(group.verify)
        self.group_names.append(name)

    def add_transition(self, name: str, probe: Probe,
                       judge: Judge) -> None:
        """Register a snapshot/compare check over consecutive switches."""
        group = _TransitionGroup(name, probe, judge)
        self._groups.append(group)
        self._verifiers.append(group.verify)
        self.group_names.append(name)

    def retire(self, *owners: object) -> None:
        """Drop every group registered with a bound method of ``owners``.

        A crashed driver's memory is gone; without this a remount on
        the same simulation keeps probing the dead driver's state next
        to its replacement's at every context switch.
        """
        keep = [index for index, group in enumerate(self._groups)
                if not any(group.owner is owner for owner in owners)]
        self._groups = [self._groups[index] for index in keep]
        self._verifiers = [self._verifiers[index] for index in keep]
        self.group_names = [self.group_names[index] for index in keep]

    def check(self, now: float) -> None:
        """Verify every group; raise SanitizerError on the first tear."""
        self.checks += 1
        index = 0
        for verify in self._verifiers:
            message = verify()
            if message is not None:
                name = self.group_names[index]
                raise SanitizerError(
                    f"atomic_group({name}) observed torn at "
                    f"t={now:.6f}ms: {message}")
            index += 1


def sanitizer_from_env() -> Optional[TrailSanitizer]:
    """A fresh sanitizer when ``TRAILSAN`` is enabled, else None.

    The one environment read in ``repro``, and so the one sanctioned
    perimeter for ambient reads (TIS004).
    """
    flag = os.environ.get("TRAILSAN", "")
    if flag == "" or flag == "0":
        return None
    return TrailSanitizer()
