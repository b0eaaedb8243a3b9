"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  When a yielded event fires, the generator resumes with the
event's value (or the event's exception is thrown into it).  A
:class:`Process` is itself an event that fires when the generator
returns, so processes can wait on each other.

Processes can be interrupted: :meth:`Process.interrupt` throws an
:class:`Interrupt` into the generator at its current yield point, which
is how the Trail driver models cancelled disk operations and how tests
exercise crash injection mid-I/O.

The resume path here runs once per yield of every process in the
simulation, so it reads event state through slots directly instead of
via properties and registers a single pre-bound ``_resume`` callback
(binding a method per yield costs an allocation).  Semantics are
identical to the property-based implementation.
"""

from __future__ import annotations

from inspect import GEN_CREATED, getgeneratorstate
from types import GeneratorType
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulation

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The cause object passed to ``interrupt()``."""
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and drives it through the event kernel.

    The process event itself succeeds with the generator's return value,
    or fails with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_waiting_on", "_bound_resume", "name")

    def __init__(
        self,
        sim: "Simulation",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if generator.__class__ is not GeneratorType \
                and not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {type(generator).__name__}")
        Event.__init__(self, sim)
        self._generator: Optional[ProcessGenerator] = generator
        self._waiting_on: Optional[Event] = None
        self._bound_resume: Optional[Callable[[Event], None]] = self._resume
        self.name: str = name or getattr(generator, "__name__", "process")
        # Kick off the generator at the current simulation time via an
        # immediately-triggered initialization event.
        init = Event(sim)
        init._cb1 = self._bound_resume
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        (the event may still fire, but this process no longer reacts).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        # Detach from whatever we were waiting on so the normal resume
        # callback becomes a no-op for this wait.
        waited = self._waiting_on
        self._waiting_on = None
        interrupt_event = Event(self.sim)
        interrupt_event.add_callback(
            lambda _evt: self._throw_in(Interrupt(cause), waited))
        interrupt_event.succeed()

    # ------------------------------------------------------------------
    # Kernel plumbing

    def _finish(self, stop: StopIteration) -> None:
        """Complete the process and break its callback/generator cycle.

        ``self._bound_resume`` references ``self``, so a finished
        process would otherwise be cyclic garbage that only the GC can
        reclaim — measurable pressure in workloads that spawn a process
        per I/O (TPC-C spawns tens of thousands).
        """
        self._bound_resume = None
        self._generator = None
        self.succeed(stop.value)

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        if self._triggered:
            # The process already finished (e.g. it was interrupted and
            # returned); a previously-awaited event firing now is stale.
            # The process deliberately moved on, so a stale failure is
            # considered handled.
            if event._triggered and event._exception is not None:
                event._defused = True
            return
        waiting = self._waiting_on
        if event is not waiting and waiting is not None:
            # We were interrupted while waiting on this event; stale wakeup.
            if event._triggered and event._exception is not None:
                event._defused = True
            return
        self._waiting_on = None
        sim = self.sim
        # Both are only None after _finish/_fail_or_crash, which also
        # set _triggered — the guard above already returned.
        generator = self._generator
        bound = self._bound_resume
        sim._active_process = self
        try:
            if event._exception is None:
                value = event._value
                target = generator.send(
                    value if value is not _PENDING else None)
            else:
                event._defused = True
                target = generator.throw(event._exception)
        except StopIteration as stop:
            sim._active_process = None
            self._finish(stop)
            return
        except BaseException as exc:
            sim._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._fail_or_crash(exc)
            return
        sim._active_process = None
        # Inlined _wait_on fast path: yielded a same-sim, not-yet-
        # processed event with a free first-callback slot.
        if (isinstance(target, Event) and target.sim is sim
                and not target._processed):
            self._waiting_on = target
            if target._cb1 is None:
                target._cb1 = bound
            elif target._callbacks is None:
                target._callbacks = [bound]
            else:
                target._callbacks.append(bound)
            return
        self._wait_on(target)

    def _throw_in(self, exc: BaseException, interrupted_event: Optional[Event]) -> None:
        """Throw ``exc`` into the generator (used by interrupt)."""
        if self._triggered:
            # The process finished between the interrupt call and its
            # delivery (same-timestamp race); nothing to deliver to.
            return
        generator = self._generator
        assert generator is not None
        if getgeneratorstate(generator) == GEN_CREATED:
            # A same-time reordering dispatched the interrupt ahead of
            # the init event: run the body to its first yield, where
            # the FIFO order delivers it.
            self._resume(Event(self.sim))
            if self._triggered:
                return
        self.sim._active_process = self
        try:
            target = generator.throw(exc)
        except StopIteration as stop:
            self.sim._active_process = None
            self._finish(stop)
            return
        except BaseException as err:
            self.sim._active_process = None
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            self._fail_or_crash(err)
            return
        self.sim._active_process = None
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            self._fail_or_crash(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target.sim is not self.sim:
            self._fail_or_crash(SimulationError(
                f"process {self.name!r} yielded an event from another simulation"))
            return
        self._waiting_on = target
        bound = self._bound_resume
        assert bound is not None
        target.add_callback(bound)

    def _fail_or_crash(self, exc: BaseException) -> None:
        """Propagate a generator exception via this process's own event.

        Waiters that receive the failure defuse it; if nobody waits, the
        kernel re-raises the exception out of ``run()`` so that process
        crashes never pass silently.
        """
        self._bound_resume = None
        self._generator = None
        self.fail(exc)

    def __repr__(self) -> str:
        state = "finished" if self._triggered else (
            "waiting" if self._waiting_on is not None else "running")
        return f"<Process {self.name!r} {state}>"
