"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence.  Processes yield events to
wait for them; the kernel fires callbacks when an event is triggered.
:class:`Timeout` is an event pre-scheduled at a fixed delay.
:class:`Condition` composes events (:func:`all_of` / :func:`any_of`).

The design follows the classic SimPy shape but is implemented from
scratch and trimmed to what the Trail simulation needs: deterministic
ordering, value/exception propagation, and composability.

Hot-path notes (see docs/PERFORMANCE.md): almost every event in a
Trail run has exactly one waiter (the process that yielded it), so the
first callback lives in a dedicated slot (``_cb1``) and the overflow
list (``_callbacks``) is only allocated for the rare multi-waiter
event.  Triggering appends straight to the kernel's queues from
:meth:`Event.succeed` / :meth:`Event.fail` / :class:`Timeout`.
:meth:`Event.__init__` is where the event slots are initialised and
every subclass calls it; the one inlined copy that measurement kept is
the :meth:`Simulation.timeout <repro.sim.kernel.Simulation.timeout>`
factory (reason and numbers beside it).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Simulation

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Life cycle: *pending* -> *triggered* (scheduled with the kernel) ->
    *processed* (callbacks ran).  An event may succeed with a value or
    fail with an exception; waiting processes receive the value or have
    the exception thrown into them.
    """

    __slots__ = ("sim", "_cb1", "_callbacks", "_processed", "_value",
                 "_exception", "_triggered", "_defused")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        #: First registered callback; the common single-waiter case
        #: avoids allocating a list entirely.
        self._cb1: Optional[Callable[["Event"], None]] = None
        #: Second-and-later callbacks, allocated on demand.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._processed = False
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._triggered = False
        #: Set when a waiter consumed this event's failure; an un-defused
        #: failure is re-raised by the kernel so errors never pass silently.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's result value (raises if not yet triggered)."""
        if self._value is _PENDING and self._exception is None:
            raise SimulationError("event value accessed before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None if pending/succeeded."""
        return self._exception

    def defuse(self) -> None:
        """Mark this event's failure as handled (kernel won't re-raise)."""
        self._defused = True

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        sim._ready.append((sim._now, sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._exception = exception
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        sim._ready.append((sim._now, sequence, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event fires.

        If the event was already processed the callback runs immediately,
        which lets late waiters join without racing the kernel.
        """
        if self._processed:
            callback(self)
        elif self._cb1 is None:
            self._cb1 = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated milliseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        Event.__init__(self, sim)
        # Born triggered: scheduled here, never through succeed().
        self._value = value
        self._triggered = True
        self.delay = delay
        sim._sequence = sequence = sim._sequence + 1
        if delay:
            heappush(sim._heap, (sim._now + delay, sequence, self))
        else:
            sim._ready.append((sim._now, sequence, self))


class Condition(Event):
    """An event that fires once ``needed`` of its child events have fired
    (``None``: all of them).

    The condition's value is a dict mapping each *fired* child event to
    its value, so callers can see which events completed.
    A failing child fails the whole condition immediately; a condition
    over no events fires at once.
    """

    __slots__ = ("_events", "_fired", "_needed")

    def __init__(self, sim: "Simulation", events: Sequence[Event],
                 needed: Optional[int] = None) -> None:
        Event.__init__(self, sim)
        self._events = tuple(events)
        self._fired: List[Event] = []
        self._needed = len(self._events) if needed is None else needed
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different sims")
        if not self._events:
            self.succeed({})
            return
        on_child = self._on_child
        for event in self._events:
            event.add_callback(on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
            return
        self._fired.append(event)
        if len(self._fired) == self._needed:
            self.succeed({child: child._value for child in self._fired})


def all_of(sim: "Simulation", events: Sequence[Event]) -> Condition:
    """A condition that fires once every event in ``events`` has fired."""
    return Condition(sim, events)


def any_of(sim: "Simulation", events: Sequence[Event]) -> Condition:
    """A condition that fires as soon as any event in ``events`` fires."""
    return Condition(sim, events, 1)
