"""Unit tests for the simulation scheduler."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import (
    ControlledReady, DispatchPolicy, Interrupt, Simulation, TrailSanitizer)


def test_clock_starts_at_zero():
    assert Simulation().now == 0.0


def test_clock_custom_start():
    assert Simulation(start_time=100.0).now == 100.0


def test_run_empty_returns_now(sim):
    assert sim.run() == 0.0


def test_run_until_time_advances_clock(sim):
    sim.timeout(3.0)
    assert sim.run(until=10.0) == 10.0
    assert sim.now == 10.0


def test_run_stops_before_future_events(sim):
    fired = []
    sim.timeout(5.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == []
    sim.run()
    assert fired == [5.0]


def test_run_until_past_raises(sim):
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for tag in range(5):
        sim.timeout(1.0, value=tag).add_callback(
            lambda e: order.append(e.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_determinism_across_runs():
    def trace():
        sim = Simulation()
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append((sim.now, name))
            yield sim.timeout(delay)
            log.append((sim.now, name))

        for name, delay in (("a", 2), ("b", 3), ("c", 2)):
            sim.process(proc(name, delay))
        sim.run()
        return log

    assert trace() == trace()


def test_peek_returns_next_event_time(sim):
    assert sim.peek() is None
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_run_until_event(sim):
    target = sim.timeout(5.0, value="v")
    sim.timeout(100.0)  # later noise stays unprocessed
    assert sim.run_until(target) == "v"
    assert sim.now == 5.0


def test_run_until_unfirable_event_raises(sim):
    pending = sim.event()  # never triggered, heap is empty
    with pytest.raises(SimulationError):
        sim.run_until(pending)


def test_run_until_already_processed(sim):
    event = sim.event()
    event.succeed(9)
    sim.run()
    assert sim.run_until(event) == 9


def test_nested_scheduling_from_callback(sim):
    hits = []

    def chain(event):
        hits.append(sim.now)
        if len(hits) < 3:
            sim.timeout(1.0).add_callback(chain)

    sim.timeout(1.0).add_callback(chain)
    sim.run()
    assert hits == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# One dispatch loop: every way of driving a simulation — run(), sliced
# run(until=), run_until(event), a step() loop — with tracing and the
# sanitizer on or off, must execute the identical schedule.

def _build_scenario(sim, log):
    """Seeded mix of every event kind; returns the last event to fire."""
    rng = random.Random(5)

    def note(tag):
        log.append((tag, sim.now))

    def sleeper(tag):
        for _ in range(6):
            yield sim.timeout(rng.choice([0.0, 0.0, 0.25, 0.5, 1.0]))
            note(tag)
            wake = sim.event()
            wake.succeed(tag)          # zero-delay, via the ready queue
            assert (yield wake) == tag

    def joiner():
        values = yield sim.all_of(
            [sim.timeout(delay, value=delay) for delay in (0.0, 0.5, 1.5)])
        note(("joined", tuple(sorted(values.values()))))

    def catcher():
        doomed = sim.event()
        sim.timeout(0.75).add_callback(
            lambda _evt: doomed.fail(ValueError("boom")))
        try:
            yield doomed
        except ValueError:
            note("defused")

    def victim():
        try:
            yield sim.timeout(50.0)
        except Interrupt as interrupt:
            note(("interrupted", interrupt.cause))

    def interrupter(target):
        yield sim.timeout(1.25)
        target.interrupt("stop")

    doomed_victim = sim.process(victim())
    processes = [sim.process(sleeper(tag)) for tag in "abc"]
    processes += [sim.process(joiner()), sim.process(catcher()),
                  doomed_victim, sim.process(interrupter(doomed_victim))]
    done = sim.all_of(processes)
    done.add_callback(lambda _evt: note("done"))
    return done


def _drive_run(sim, done):
    sim.run()


def _drive_sliced(sim, done):
    deadline = sim.now
    while not done.processed:
        deadline += 0.3
        sim.run(until=deadline)
    sim.run()  # the victim's abandoned 50 ms timeout


def _drive_run_until(sim, done):
    sim.run_until(done)
    sim.run()


def _drive_step(sim, done):
    while sim.step():
        pass


_DRIVERS = [_drive_run, _drive_sliced, _drive_run_until, _drive_step]


def _run_scenario(driver, traced, sanitized):
    sim = Simulation()
    sim.sanitizer = TrailSanitizer() if sanitized else None
    trace = sim.enable_trace() if traced else None
    log = []
    done = _build_scenario(sim, log)
    driver(sim, done)
    assert done.processed and sim.peek() is None
    checks = sim.sanitizer.checks if sanitized else None
    return log, trace, checks


@pytest.mark.parametrize("sanitized", [False, True])
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("driver", _DRIVERS)
def test_every_driver_executes_the_same_schedule(driver, traced, sanitized):
    ref_log, ref_trace, ref_checks = _run_scenario(_drive_run, True, True)
    assert ref_log[-1][0] == "done" and ref_checks == len(ref_trace)
    log, trace, checks = _run_scenario(driver, traced, sanitized)
    assert log == ref_log
    if traced:
        assert trace == ref_trace
    if sanitized:
        assert checks == len(ref_trace)


def test_run_until_now_fires_only_events_due_now(sim):
    fired = []
    sim.timeout(0.0, value="due").add_callback(lambda e: fired.append(e.value))
    sim.timeout(1.0, value="later").add_callback(lambda e: fired.append(e.value))
    assert sim.run(until=sim.now) == 0.0
    assert fired == ["due"]
    sim.run(until=1.0)
    assert sim.run(until=sim.now) == 1.0  # until == now is not the past
    assert fired == ["due", "later"]


def test_event_at_deadline_and_its_zero_delay_follow_up_both_fire(sim):
    fired = []

    def at_deadline(_event):
        fired.append("at")
        sim.timeout(0.0).add_callback(lambda e: fired.append("follow-up"))
        sim.timeout(0.5).add_callback(lambda e: fired.append("past"))

    sim.timeout(2.0).add_callback(at_deadline)
    assert sim.run(until=2.0) == 2.0
    assert fired == ["at", "follow-up"]
    assert sim.peek() == 2.5


def test_step_on_empty_queues_is_a_noop(sim):
    sim.run(until=3.0)
    assert sim.step() is False
    assert sim.now == 3.0 and sim.peek() is None


def test_run_until_processed_event_dispatches_nothing(sim):
    event = sim.event()
    event.succeed(9)
    sim.run()
    fired = []
    sim.timeout(0.0).add_callback(lambda e: fired.append(e))
    assert sim.run_until(event) == 9
    assert fired == [] and sim.peek() == 0.0


@pytest.mark.parametrize("traced", [False, True])
def test_run_until_unfirable_drains_then_raises(sim, traced):
    trace = sim.enable_trace() if traced else None
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(sim.now))
    with pytest.raises(SimulationError, match="event cannot fire"):
        sim.run_until(sim.event())
    assert fired == [1.0] and sim.now == 1.0
    if traced:
        assert trace == [(1.0, 1)]


def test_step_consumes_one_scheduling_decision():
    class Newest(DispatchPolicy):
        decisions = 0

        def choose(self, group):
            self.decisions += 1
            return len(group) - 1

    policy = Newest()
    sim = Simulation()
    sim._ready = ControlledReady(policy)
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append("delayed"))
    for tag in "abc":
        sim.timeout(0.0, value=tag).add_callback(
            lambda e: fired.append(e.value))
    # Three same-time entries: a choice of 3, a choice of 2, then a
    # singleton (no decision) — one per step however often the head is
    # peeked in between.
    for expected_fired, expected_decisions in (
            (["c"], 1), (["c", "b"], 2), (["c", "b", "a"], 2)):
        assert sim.peek() == 0.0
        assert sim.step() is True
        assert fired == expected_fired
        assert policy.decisions == expected_decisions
    assert sim.step() is True and fired[-1] == "delayed"
    assert sim.step() is False
