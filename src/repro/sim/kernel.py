"""The discrete-event simulation kernel.

:class:`Simulation` owns the simulated clock and the pending-event
queues.  Time is in milliseconds (``float``).  Events scheduled for the
same instant fire in scheduling order, which makes every run
deterministic — a property the recovery and batching tests rely on.

Typical use::

    sim = Simulation()

    def writer(sim, disk):
        for _ in range(10):
            yield disk.write(...)
            yield sim.timeout(2.0)

    sim.process(writer(sim, disk))
    sim.run()

Scheduling internals (see docs/PERFORMANCE.md): pending events live in
two structures that together form one logical priority queue keyed by
``(time, sequence)``:

* ``_heap``  — a binary heap of *delayed* events (``delay > 0``);
* ``_ready`` — a plain FIFO of *immediate* events (``succeed``/``fail``
  and zero-delay timeouts).  Because simulated time never decreases and
  sequence numbers only grow, appends arrive already sorted by
  ``(time, sequence)``, so a deque replaces O(log n) heap traffic for
  the most common event class.

One loop, :meth:`Simulation._dispatch`, pops whichever head is globally
smallest, which reproduces exactly the ordering of a single shared
heap.  :meth:`~Simulation.run`, :meth:`~Simulation.run_until` and
:meth:`~Simulation.step` differ only in the stop condition they hand
it, and tracing or the sanitizer are two ``is not None`` checks inside
it — so every way of driving a simulation, timed or instrumented,
executes the same code (the seeded TPC-C trace test pins the order).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout, Condition, all_of, any_of
from repro.sim.process import Process, ProcessGenerator
from repro.sim.sanitizer import TrailSanitizer, sanitizer_from_env

#: ``until`` of a dispatch with no deadline: no event time exceeds it.
_FOREVER = float("inf")


class Simulation:
    """Event scheduler and simulated clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._ready: Deque[Tuple[float, int, Event]] = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        #: When not ``None``, every dispatched event appends its
        #: ``(time, sequence)`` pair here — the determinism tests use
        #: this to prove optimizations preserve event ordering.
        self._trace: Optional[List[Tuple[float, int]]] = None
        #: Runtime atomicity sanitizer (``TRAILSAN=1``, set for every
        #: test session), or None.  Components register their atomic
        #: groups here at construction time; the dispatch loop calls
        #: ``check()`` at every context switch.  Read-only checks:
        #: enabling it never changes the schedule.
        self.sanitizer: Optional[TrailSanitizer] = sanitizer_from_env()

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event-order tracing

    def enable_trace(self) -> List[Tuple[float, int]]:
        """Record ``(time, sequence)`` of every dispatched event.

        Must be called before :meth:`run`; returns the live trace list.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    @property
    def trace(self) -> Optional[List[Tuple[float, int]]]:
        """The recorded event-order trace, or None if tracing is off."""
        return self._trace

    # ------------------------------------------------------------------
    # Factories

    def event(self) -> Event:
        """Create a new untriggered event bound to this simulation."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now with ``value``."""
        # The one inlined copy of Timeout.__init__ + Event.__init__ that
        # measurement kept (same statements; tests/sim/test_events.py
        # holds the two to the same resulting state).  Against the
        # parent commit, `return Timeout(self, delay, value)` measured
        # `make perf-ab` sync-sparse host_ops_per_s -4.3 % (1/20 pairs
        # won) and -5.6 % (0/10) where this copy measures -2.6 % (3/10,
        # unresolved).  docs/PERFORMANCE.md, "Fifth pass".
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout._cb1 = None
        timeout._callbacks = None
        timeout._processed = False
        timeout._value = value
        timeout._exception = None
        timeout._triggered = True
        timeout._defused = False
        timeout.delay = delay
        self._sequence = sequence = self._sequence + 1
        if delay:
            heappush(self._heap, (self._now + delay, sequence, timeout))
        else:
            self._ready.append((self._now, sequence, timeout))
        return timeout

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Sequence[Event]) -> Condition:
        """Condition event that fires when all ``events`` have fired."""
        return all_of(self, events)

    def any_of(self, events: Sequence[Event]) -> Condition:
        """Condition event that fires when any of ``events`` has fired."""
        return any_of(self, events)

    # ------------------------------------------------------------------
    # Execution

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock reaches ``until``.

        Returns the simulation time at which execution stopped.  An
        unhandled process failure propagates out of this call.
        """
        if until is None:
            self._dispatch(_FOREVER, None)
            return self._now
        if until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        self._dispatch(until, None)
        self._now = until
        return until

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` has fired; returns its value.

        Unlike :meth:`run`, this terminates even when perpetual
        background processes (write-back loops, idle repositioners)
        keep the event queues non-empty.
        """
        self._dispatch(_FOREVER, event)
        if not event._processed:
            raise SimulationError(
                "event cannot fire: the event heap is empty")
        return event.value

    def step(self) -> bool:
        """Dispatch the single next event; False when nothing is queued.

        The public single-step interface used by the interleaved
        multi-instance harness: several simulations advance in
        round-robin, one dispatched event per turn.  Ordering within
        one simulation is identical to :meth:`run` / :meth:`run_until`
        (the head event is the one the dispatch loop pops first).
        """
        head = self._head()
        if head is None:
            return False
        self._dispatch(_FOREVER, head[2])
        return True

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if queues are empty."""
        head = self._head()
        return None if head is None else head[0]

    def _head(self) -> Optional[Tuple[float, int, Event]]:
        """The entry :meth:`_dispatch` would pop next, left queued."""
        heap = self._heap
        ready = self._ready
        if ready and not (heap and heap[0] < ready[0]):
            return ready[0]
        return heap[0] if heap else None

    def _dispatch(self, until: float, target: Optional[Event]) -> None:
        """Dispatch events in ``(time, sequence)`` order.

        Stops when both queues are empty, when the next event lies after
        ``until``, or once ``target`` (if given) has been processed.
        """
        heap = self._heap
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        trace = self._trace
        sanitizer = self.sanitizer
        # ``while True`` with the stop test inside, not ``while <test>``:
        # CPython 3.11 specialises a function's bytecode after 8 calls
        # or 8 *unconditional* backward jumps.  A conditional loop head
        # compiles to a conditional back edge, so a ``run()`` that is
        # called once would execute every event unspecialised
        # (measured: +250 ns per event on kernel-churn).
        while True:
            if target is not None and target._processed:
                return
            # Pop the globally smallest (time, sequence) of both queues.
            # Ready entries carry a time <= now <= until, so only a heap
            # head can lie past the deadline.
            if ready and not (heap and heap[0] < ready[0]):
                when, sequence, event = popleft()
            elif heap and heap[0][0] <= until:
                when, sequence, event = pop(heap)
            else:
                return
            self._now = when
            if trace is not None:
                trace.append((when, sequence))
            # Detach all callbacks before invoking any, so a callback
            # registered mid-dispatch runs immediately (the event is
            # already processed).
            event._processed = True
            callback = event._cb1
            if callback is not None:
                event._cb1 = None
                more = event._callbacks
                event._callbacks = None
                callback(event)
                if more is not None:
                    for callback in more:
                        callback(event)
            if event._exception is not None and not event._defused:
                raise event._exception
            if sanitizer is not None:
                sanitizer.check(self._now)
