"""Unit tests for the lock manager."""

import pytest

from repro.db.locks import _X_BIT, LockManager, LockMode, LockStats
from repro.errors import DeadlockError
from repro.sim import Simulation

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def acquire(sim, manager, owner, resource, mode):
    def body():
        yield manager.acquire(owner, resource, mode)
    return sim.run_until(sim.process(body()))


def holding(holdings):
    """A lock table where each ``(owner, mode)`` was granted in turn."""
    sim = Simulation()
    manager = LockManager(sim)
    for owner, mode in holdings:
        assert manager.try_acquire(owner, "r", mode)
    return sim, manager


def granted_at_once(holdings, mode):
    return holding(holdings)[1].try_acquire("requester", "r", mode)


def granted_from_queue(holdings, mode):
    """Queue the request behind a blocker, let the blocker release, and
    report whether ``_dispatch`` granted it.

    A request the requester's own hold already covers (X, or the mode
    itself) is granted before it queues, as ``try_acquire`` grants it.
    """
    sim, manager = holding(holdings)
    if not manager.try_acquire("blocker", "r", X):
        # The blocker joins the way _dispatch grants, past the matrix.
        state = manager._locks["r"]
        manager._grant("r", state.holders, "blocker", _X_BIT)
    waiter = manager.acquire_slow("requester", "r", mode)
    sim.run(until=1.0)
    held = dict(holdings).get("requester")
    covered = held is X or held is mode
    assert waiter.triggered is covered
    assert bool(manager._locks["r"].queue) is not covered
    manager.release_all("blocker")
    sim.run(until=2.0)
    return waiter.triggered


class TestGrantRule:
    @pytest.mark.parametrize("requested", [S, X], ids=["S", "X"])
    @pytest.mark.parametrize("held", [None, S, X], ids=["none", "S", "X"])
    @pytest.mark.parametrize("other", [None, S, X], ids=["none", "S", "X"])
    def test_try_acquire_grants_exactly_when_dispatch_does(
            self, other, held, requested):
        holdings = [("other", other)] if other else []
        if held is not None:
            if granted_at_once(holdings, held):
                holdings.append(("requester", held))
            else:
                # The matrix never lets the requester hold ``held``
                # beside ``other``: that refused request is compared.
                requested, held = held, None
        expected = (held in (X, requested) or other is None
                    or (other is S and requested is S))
        assert granted_at_once(holdings, requested) is expected
        assert granted_from_queue(holdings, requested) is expected


class TestCompatibility:
    def test_shared_locks_coexist(self, sim):
        manager = LockManager(sim)
        acquire(sim, manager, "t1", "r", LockMode.SHARED)
        acquire(sim, manager, "t2", "r", LockMode.SHARED)
        assert manager.stats.waits == 0

    def test_exclusive_blocks_shared(self, sim):
        manager = LockManager(sim)
        trace = []

        def writer():
            yield manager.acquire("w", "r", LockMode.EXCLUSIVE)
            trace.append(("w", sim.now))
            yield sim.timeout(10)
            manager.release_all("w")

        def reader():
            yield sim.timeout(1)
            yield manager.acquire("r1", "r", LockMode.SHARED)
            trace.append(("r1", sim.now))

        done = sim.all_of([sim.process(writer()), sim.process(reader())])
        sim.run_until(done)
        assert trace == [("w", 0.0), ("r1", 10.0)]
        assert manager.stats.waits == 1
        assert manager.stats.total_wait_ms == pytest.approx(9.0)

    def test_shared_blocks_exclusive(self, sim):
        manager = LockManager(sim)
        acquire(sim, manager, "reader", "r", LockMode.SHARED)
        granted = []

        def writer():
            yield manager.acquire("writer", "r", LockMode.EXCLUSIVE)
            granted.append(sim.now)

        process = sim.process(writer())

        def releaser():
            yield sim.timeout(5)
            manager.release_all("reader")

        sim.process(releaser())
        sim.run_until(process)
        assert granted == [5.0]

    def test_reentrant_same_mode(self, sim):
        manager = LockManager(sim)
        acquire(sim, manager, "t", "r", LockMode.EXCLUSIVE)
        acquire(sim, manager, "t", "r", LockMode.EXCLUSIVE)
        # X implies S.
        acquire(sim, manager, "t", "r", LockMode.SHARED)
        assert manager.stats.waits == 0

    def test_upgrade_when_sole_holder(self, sim):
        manager = LockManager(sim)
        acquire(sim, manager, "t", "r", LockMode.SHARED)
        acquire(sim, manager, "t", "r", LockMode.EXCLUSIVE)
        assert manager.stats.waits == 0


class TestQueueing:
    def test_fifo_among_writers(self, sim):
        manager = LockManager(sim)
        order = []

        def writer(name, start_delay):
            yield sim.timeout(start_delay)
            yield manager.acquire(name, "r", LockMode.EXCLUSIVE)
            order.append(name)
            yield sim.timeout(5)
            manager.release_all(name)

        processes = [sim.process(writer(f"w{i}", i * 0.1))
                     for i in range(4)]
        sim.run_until(sim.all_of(processes))
        assert order == ["w0", "w1", "w2", "w3"]

    def test_release_all_dispatches_waiters(self, sim):
        manager = LockManager(sim)
        acquire(sim, manager, "holder", "a", LockMode.EXCLUSIVE)
        acquire(sim, manager, "holder", "b", LockMode.EXCLUSIVE)
        granted = []

        def waiter(resource):
            yield manager.acquire("other", resource, LockMode.SHARED)
            granted.append(resource)

        processes = [sim.process(waiter("a")), sim.process(waiter("b"))]
        manager.release_all("holder")
        sim.run_until(sim.all_of(processes))
        assert sorted(granted) == ["a", "b"]
        assert manager.held_by("holder") == []

    def test_deadlock_timeout_aborts(self, sim):
        manager = LockManager(sim, deadlock_timeout_ms=20.0)
        acquire(sim, manager, "holder", "r", LockMode.EXCLUSIVE)
        outcome = {}

        def victim():
            try:
                yield manager.acquire("victim", "r", LockMode.EXCLUSIVE)
                outcome["granted"] = True
            except DeadlockError:
                outcome["aborted_at"] = sim.now

        process = sim.process(victim())
        sim.run_until(process)
        assert outcome == {"aborted_at": 20.0}
        assert manager.stats.deadlock_aborts == 1

    def test_true_deadlock_resolved_by_timeout(self, sim):
        manager = LockManager(sim, deadlock_timeout_ms=15.0)
        outcomes = []

        def transaction(name, first, second):
            try:
                yield manager.acquire(name, first, LockMode.EXCLUSIVE)
                yield sim.timeout(1)
                yield manager.acquire(name, second, LockMode.EXCLUSIVE)
                outcomes.append((name, "ok"))
            except DeadlockError:
                outcomes.append((name, "aborted"))
                manager.release_all(name)

        processes = [sim.process(transaction("t1", "a", "b")),
                     sim.process(transaction("t2", "b", "a"))]
        sim.run_until(sim.all_of(processes))
        results = dict(outcomes)
        # At least one victim; the timeout breaks the cycle either way.
        assert "aborted" in results.values()

    def test_release_before_the_slow_path_starts_grants_at_once(self, sim):
        """The holder releases after ``acquire`` refused but before the
        waiting process's first step: the waiter gets the lock then,
        instead of queueing where nothing dispatches and aborting at
        the deadlock timeout."""
        manager = LockManager(sim)
        acquire(sim, manager, "A", "r", LockMode.EXCLUSIVE)
        event = manager.acquire("B", "r", LockMode.EXCLUSIVE)
        manager.release_all("A")
        assert sim.run_until(event) is True
        assert sim.now == 0.0
        assert manager.held_by("B") == ["r"]
        assert manager.stats == LockStats(acquisitions=2, waits=0,
                                          deadlock_aborts=0,
                                          total_wait_ms=0.0)

    def test_victim_timeout_leaves_queue_clean(self, sim):
        manager = LockManager(sim, deadlock_timeout_ms=5.0)
        acquire(sim, manager, "holder", "r", LockMode.EXCLUSIVE)

        def victim():
            with pytest.raises(DeadlockError):
                yield manager.acquire("victim", "r", LockMode.EXCLUSIVE)

        sim.run_until(sim.process(victim()))
        # After the holder releases, a fresh request is granted at once.
        manager.release_all("holder")
        acquire(sim, manager, "fresh", "r", LockMode.EXCLUSIVE)
