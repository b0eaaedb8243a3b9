"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import ControlledReady, DispatchPolicy, Interrupt, Simulation


def test_process_return_value(sim):
    def worker():
        yield sim.timeout(2)
        return 99

    process = sim.process(worker())
    sim.run()
    assert process.value == 99


def test_process_is_alive_until_done(sim):
    def worker():
        yield sim.timeout(5)

    process = sim.process(worker())
    assert process.is_alive
    sim.run()
    assert not process.is_alive


def test_process_receives_event_value(sim):
    def worker():
        value = yield sim.timeout(1, value="hello")
        return value

    process = sim.process(worker())
    sim.run()
    assert process.value == "hello"


def test_active_process_is_set_only_while_a_body_runs(sim):
    seen = []

    def worker():
        seen.append(sim.active_process)
        yield sim.timeout(1)
        seen.append(sim.active_process)
        try:
            yield sim.timeout(10)
        except Interrupt:
            seen.append(sim.active_process)

    def interrupter():
        yield sim.timeout(2)
        process.interrupt()

    process = sim.process(worker())
    sim.process(interrupter())
    assert sim.active_process is None
    sim.run()
    assert seen == [process, process, process]
    assert sim.active_process is None


def test_process_waits_on_another_process(sim):
    def child():
        yield sim.timeout(3)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return ("got", result, sim.now)

    process = sim.process(parent())
    sim.run()
    assert process.value == ("got", "child-result", 3.0)


def test_child_exception_propagates_to_parent(sim):
    def child():
        yield sim.timeout(1)
        raise KeyError("oops")

    def parent():
        try:
            yield sim.process(child())
        except KeyError as exc:
            return ("caught", str(exc))

    process = sim.process(parent())
    sim.run()
    assert process.value == ("caught", "'oops'")


def test_uncaught_process_exception_raises_from_run(sim):
    def worker():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(worker())
    with pytest.raises(RuntimeError):
        sim.run()


def test_observed_process_failure_does_not_raise_from_run(sim):
    def worker():
        yield sim.timeout(1)
        raise RuntimeError("handled by parent")

    def parent():
        with pytest.raises(RuntimeError):
            yield sim.process(worker())

    sim.process(parent())
    sim.run()


def test_interrupt_delivers_cause(sim):
    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)

    def interrupter(target):
        yield sim.timeout(7)
        target.interrupt("reason")

    process = sim.process(sleeper())
    sim.process(interrupter(process))
    sim.run()
    assert process.value == ("interrupted", "reason", 7.0)


def test_interrupt_without_cause(sim):
    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            return interrupt.cause

    process = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1)
        process.interrupt()

    sim.process(interrupter())
    sim.run()
    assert process.value is None


def test_interrupted_process_can_continue(sim):
    trace = []

    def robust():
        try:
            yield sim.timeout(100)
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield sim.timeout(10)
        trace.append(("done", sim.now))

    process = sim.process(robust())

    def interrupter():
        yield sim.timeout(3)
        process.interrupt()

    sim.process(interrupter())
    sim.run()
    assert trace == [("interrupted", 3.0), ("done", 13.0)]


def test_stale_timeout_after_interrupt_is_ignored(sim):
    def sleeper():
        try:
            yield sim.timeout(50)
        except Interrupt:
            return "out"

    process = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        process.interrupt()

    sim.process(interrupter())
    sim.run()  # the 50 ms timeout still fires at t=50; must be harmless
    assert process.value == "out"


def test_interrupting_finished_process_raises(sim):
    def quick():
        yield sim.timeout(1)

    process = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_same_timestamp_interrupt_race_is_safe(sim):
    """Interrupt scheduled at the exact instant the process finishes."""
    def quick():
        yield sim.timeout(5)
        return "finished"

    process = sim.process(quick())

    def interrupter():
        yield sim.timeout(5)
        if process.is_alive:
            process.interrupt("too late")

    sim.process(interrupter())
    sim.run()
    assert process.value == "finished"


class _NewestFirst(DispatchPolicy):
    """Dispatches the newest member of every same-time group first."""

    def choose(self, group):
        return len(group) - 1


def _stoppable(sim):
    try:
        yield sim.timeout(100)
    except Interrupt:
        return "stopped"


def _returns_at_once(sim):
    return "done"
    yield  # pragma: no cover


@pytest.mark.parametrize("body, value", [(_stoppable, "stopped"),
                                         (_returns_at_once, "done")])
def test_interrupt_dispatched_before_init_acts_as_under_fifo(
        sim, body, value):
    """A legal same-time reordering runs the interrupt ahead of the
    process's init event; the body still sees it at its first yield
    (or not at all if it returns first), as under the FIFO order."""
    sim._ready = ControlledReady(_NewestFirst())
    process = sim.process(body(sim))
    process.interrupt("stop")
    sim.run()
    assert process.value == value


def test_yielding_non_event_fails_process(sim):
    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_foreign_event_fails_process(sim):
    other = Simulation()

    def bad():
        yield other.timeout(1)

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_requires_generator(sim):
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_name_from_generator(sim):
    def my_worker():
        yield sim.timeout(1)

    process = sim.process(my_worker())
    assert "my_worker" in repr(process)
    sim.run()


def test_immediate_return_process(sim):
    def empty():
        return "instant"
        yield  # pragma: no cover

    process = sim.process(empty())
    sim.run()
    assert process.value == "instant"
