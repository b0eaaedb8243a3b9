"""Unit tests for Resource and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulation, Store


def holder(sim, resource, log, name, hold_ms):
    request = resource.request()
    yield request
    log.append(("acquire", name, sim.now))
    yield sim.timeout(hold_ms)
    resource.release(request)
    log.append(("release", name, sim.now))


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_when_free(self, sim):
        resource = Resource(sim)
        request = resource.request()
        assert request.triggered
        assert resource.in_use == 1
        assert request.wait_time == 0.0

    def test_fifo_order(self, sim):
        resource = Resource(sim)
        log = []
        for name in ("a", "b", "c"):
            sim.process(holder(sim, resource, log, name, hold_ms=2))
        sim.run()
        acquires = [entry[1] for entry in log if entry[0] == "acquire"]
        assert acquires == ["a", "b", "c"]

    def test_capacity_two_allows_two_holders(self, sim):
        resource = Resource(sim, capacity=2)
        log = []
        for name in ("a", "b", "c"):
            sim.process(holder(sim, resource, log, name, hold_ms=4))
        sim.run()
        # a and b start together at t=0; c starts when one releases.
        start_times = {entry[1]: entry[2] for entry in log
                       if entry[0] == "acquire"}
        assert start_times["a"] == 0.0
        assert start_times["b"] == 0.0
        assert start_times["c"] == 4.0

    def test_queue_length(self, sim):
        resource = Resource(sim)
        resource.request()
        resource.request()
        resource.request()
        assert resource.in_use == 1
        assert resource.queue_length == 2

    def test_release_unheld_raises(self, sim):
        resource = Resource(sim)
        granted = resource.request()
        other = Resource(sim).request()
        with pytest.raises(SimulationError):
            resource.release(other)
        resource.release(granted)

    def test_release_queued_request_cancels_it(self, sim):
        resource = Resource(sim)
        first = resource.request()
        queued = resource.request()
        resource.release(queued)  # treated as cancellation
        resource.release(first)
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_cancel_queued(self, sim):
        resource = Resource(sim)
        resource.request()
        queued = resource.request()
        assert resource.cancel(queued) is True
        assert resource.queue_length == 0

    def test_cancel_granted_returns_false(self, sim):
        resource = Resource(sim)
        granted = resource.request()
        assert resource.cancel(granted) is False

    def test_wait_time_measures_queueing(self, sim):
        resource = Resource(sim)
        first = resource.request()  # held from t=0
        second = resource.request()  # queued behind it

        def releaser():
            yield sim.timeout(6)
            resource.release(first)

        sim.process(releaser())
        sim.run()
        assert second.wait_time == 6.0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        event = store.get()
        assert event.triggered
        assert event.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def getter():
            value = yield store.get()
            results.append((value, sim.now))

        sim.process(getter())

        def putter():
            yield sim.timeout(4)
            store.put("late")

        sim.process(putter())
        sim.run()
        assert results == [("late", 4.0)]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for value in (1, 2, 3):
            store.put(value)
        assert store.get().value == 1
        assert store.get().value == 2
        assert len(store) == 1

    def test_drain_returns_all(self, sim):
        store = Store(sim)
        for value in "abc":
            store.put(value)
        assert store.drain() == ["a", "b", "c"]
        assert len(store) == 0
        assert store.drain() == []

    def test_items_snapshot(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert store.items == (1, 2)

    def test_waiting_getters_fifo(self, sim):
        store = Store(sim)
        results = []

        def getter(name):
            value = yield store.get()
            results.append((name, value))

        sim.process(getter("g1"))
        sim.process(getter("g2"))

        def putter():
            yield sim.timeout(1)
            store.put("first")
            store.put("second")

        sim.process(putter())
        sim.run()
        assert results == [("g1", "first"), ("g2", "second")]
