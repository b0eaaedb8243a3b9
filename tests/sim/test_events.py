"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulation, Timeout, all_of, any_of


def test_event_starts_pending(sim):
    event = sim.event()
    assert not event.triggered
    assert not event.processed
    assert not event.ok


def test_succeed_carries_value(sim):
    event = sim.event()
    event.succeed(41)
    assert event.triggered
    assert event.ok
    assert event.value == 41


def test_succeed_with_none_value(sim):
    event = sim.event()
    event.succeed()
    assert event.value is None


def test_value_before_trigger_raises(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_double_succeed_raises(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_fail_then_succeed_raises(sim):
    event = sim.event()
    event.fail(ValueError("x"))
    event.defuse()
    with pytest.raises(SimulationError):
        event.succeed(1)


def test_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_value_raises_original(sim):
    event = sim.event()
    event.fail(KeyError("boom"))
    event.defuse()
    assert isinstance(event.exception, KeyError)
    with pytest.raises(KeyError):
        _ = event.value


def test_callbacks_run_in_order(sim):
    event = sim.event()
    order = []
    event.add_callback(lambda e: order.append(1))
    event.add_callback(lambda e: order.append(2))
    event.succeed()
    sim.run()
    assert order == [1, 2]


def test_late_callback_runs_immediately(sim):
    event = sim.event()
    event.succeed("x")
    sim.run()
    assert event.processed
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_timeout_fires_at_delay(sim):
    times = []
    timeout = sim.timeout(7.5, value="done")
    timeout.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(7.5, "done")]


def test_timeout_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


@pytest.mark.parametrize("delay", [0, 2.5])
def test_timeout_factory_equals_the_constructor(delay):
    """``Simulation.timeout`` keeps an inlined copy of the initialiser:
    it must leave exactly the state ``Timeout(sim, ...)`` does."""
    slots = [name for cls in Timeout.__mro__[:-1] for name in cls.__slots__]
    states = []
    for build in (lambda sim: sim.timeout(delay, "v"),
                  lambda sim: Timeout(sim, delay, "v")):
        sim = Simulation(start_time=1.0)
        timeout = build(sim)
        assert type(timeout) is Timeout and timeout.sim is sim
        queued = [(when, seq) for when, seq, event
                  in list(sim._heap) + list(sim._ready) if event is timeout]
        states.append(({name: getattr(timeout, name) for name in slots
                        if name != "sim"}, queued, bool(sim._heap)))
    assert states[0] == states[1]
    assert states[0][1] == [(1.0 + delay, 1)]


def test_all_of_waits_for_every_event(sim):
    t1, t2, t3 = sim.timeout(1), sim.timeout(5), sim.timeout(3)
    condition = all_of(sim, [t1, t2, t3])
    fired = []
    condition.add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert set(condition.value) == {t1, t2, t3}


def test_any_of_fires_on_first(sim):
    t1, t2 = sim.timeout(4), sim.timeout(2)
    condition = any_of(sim, [t1, t2])
    fired = []
    condition.add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]
    assert t2 in condition.value and t1 not in condition.value


def test_all_of_empty_fires_immediately(sim):
    condition = all_of(sim, [])
    assert condition.triggered
    assert condition.value == {}


def test_any_of_empty_fires_immediately(sim):
    condition = any_of(sim, [])
    assert condition.triggered


def test_condition_propagates_child_failure(sim):
    event = sim.event()
    condition = all_of(sim, [event, sim.timeout(10)])
    condition.defuse()
    event.fail(RuntimeError("child failed"))
    sim.run()
    assert condition.triggered
    assert isinstance(condition.exception, RuntimeError)


def test_condition_rejects_foreign_events(sim):
    other = Simulation()
    with pytest.raises(SimulationError):
        all_of(sim, [sim.event(), other.event()])


def test_unhandled_failed_event_raises_from_run(sim):
    event = sim.event()
    event.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError):
        sim.run()


def test_defused_failed_event_does_not_raise(sim):
    event = sim.event()
    event.fail(ValueError("handled"))
    event.defuse()
    sim.run()  # no exception
    assert event.processed
