"""Two-phase record locking with timeout-based deadlock resolution.

Shared/exclusive locks on arbitrary hashable resources, FIFO-fair with
the usual compatibility matrix.  A waiter that exceeds the deadlock
timeout is aborted with :class:`DeadlockError` — the paper's TPC-C runs
mention a "transaction abortion rate", which this is the source of in
the reproduction.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError
from repro.sim import Event, Simulation


class LockMode(enum.Enum):
    """Lock compatibility: S is shared, X is exclusive."""

    SHARED = "S"
    EXCLUSIVE = "X"


#: Held modes are tracked as an int bitmask per owner (S=1, X=2): the
#: per-grant compatibility checks become integer ops instead of enum
#: hashing against per-owner ``set`` objects, and granting allocates
#: nothing.
_S_BIT = 1
_X_BIT = 2


@dataclass
class LockStats:
    """Contention counters."""

    acquisitions: int = 0
    waits: int = 0
    deadlock_aborts: int = 0
    total_wait_ms: float = 0.0


class _LockState:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        #: owner -> bitmask of modes held (S may upgrade to S|X).
        self.holders: Dict[Any, int] = {}
        #: Waiters, allocated lazily: the uncontended fast path never
        #: builds a deque.
        self.queue: Optional[Deque[Tuple[Any, LockMode, Event]]] = None


class LockManager:
    """FIFO-fair S/X lock table."""

    def __init__(self, sim: Simulation, deadlock_timeout_ms: float = 500.0) -> None:
        self.sim = sim
        self.deadlock_timeout_ms = deadlock_timeout_ms
        self.stats = LockStats()
        self._locks: Dict[Any, _LockState] = {}
        #: owner -> resources it holds at least one mode on, so that
        #: release_all is O(locks held) instead of O(locks in the table).
        self._held: Dict[Any, Set[Any]] = {}
        #: Released, empty lock states kept for reuse.  TPC-C touches
        #: thousands of cold records per run but holds only a handful of
        #: locks at once; recycling states caps _LockState construction
        #: at the peak concurrent lock count instead of one per access.
        self._state_pool: List[_LockState] = []

    def acquire(self, owner: Any, resource: Any, mode: LockMode):
        """Acquire ``mode`` on ``resource``; yield the returned event.

        Re-entrant: an owner already holding a sufficient mode returns
        immediately; holding S and requesting X upgrades when no other
        owner holds the lock.  The uncontended path returns an
        already-fired event (no process spawn — this is the hot path of
        every TPC-C record access).  Raises :class:`DeadlockError` on
        timeout when contended.
        """
        if self.try_acquire(owner, resource, mode):
            event = Event(self.sim)
            event.succeed(True)
            return event
        return self.sim.process(self._acquire_slow(owner, resource, mode),
                                name=f"lock:{resource}")

    def acquire_slow(self, owner: Any, resource: Any, mode: LockMode):
        """Contended path: queue up and wait (process; may deadlock)."""
        return self.sim.process(self._acquire_slow(owner, resource, mode),
                                name=f"lock:{resource}")

    def try_acquire(self, owner: Any, resource: Any, mode: LockMode) -> bool:
        """Synchronous fast path: grant without touching the kernel.

        Returns True when the lock was granted (or already held with a
        sufficient mode); False when the request would contend.  The
        caller then falls back to :meth:`acquire_slow`.  Skipping the
        event/dispatch round trip here is what keeps an uncontended
        TPC-C record access at a single kernel event (its CPU charge).
        """
        bit = _S_BIT if mode is LockMode.SHARED else _X_BIT
        state = self._locks.get(resource)
        if state is None:
            # Uncontended cold lock: recycle a released state if one is
            # available so the grant allocates nothing but dict slots.
            pool = self._state_pool
            state = pool.pop() if pool else _LockState()
            self._locks[resource] = state
            state.holders[owner] = bit
            held_set = self._held.get(owner)
            if held_set is None:
                held_set = self._held[owner] = set()
            held_set.add(resource)
            self.stats.acquisitions += 1
            return True
        holders = state.holders
        held = holders.get(owner)
        if held is not None and (held & bit or held & _X_BIT):
            # Already holds the mode, or holds X (sufficient for S).
            self.stats.acquisitions += 1
            return True
        if not state.queue:
            # Compatibility against the other holders: S needs no other
            # X holder; X needs no other holder at all.
            compatible = True
            if bit == _S_BIT:
                for holder, mask in holders.items():
                    if mask & _X_BIT and holder != owner:
                        compatible = False
                        break
            else:
                for holder in holders:
                    if holder != owner:
                        compatible = False
                        break
            if compatible:
                holders[owner] = bit if held is None else held | bit
                held_set = self._held.get(owner)
                if held_set is None:
                    held_set = self._held[owner] = set()
                held_set.add(resource)
                self.stats.acquisitions += 1
                return True
        return False

    def _acquire_slow(self, owner, resource, mode):
        state = self._locks.get(resource)
        if state is None:
            pool = self._state_pool
            state = pool.pop() if pool else _LockState()
            self._locks[resource] = state
        self.stats.waits += 1
        grant = self.sim.event()
        if state.queue is None:
            state.queue = deque()
        state.queue.append((owner, mode, grant))
        timeout = self.sim.timeout(self.deadlock_timeout_ms)
        requested_at = self.sim.now
        outcome = yield self.sim.any_of([grant, timeout])
        self.stats.total_wait_ms += self.sim.now - requested_at
        if grant not in outcome:
            # Timed out: withdraw the request and abort.
            try:
                state.queue.remove((owner, mode, grant))
            except ValueError:
                pass
            self._dispatch(resource, state)
            self.stats.deadlock_aborts += 1
            raise DeadlockError(
                f"lock wait on {resource!r} ({mode.value}) exceeded "
                f"{self.deadlock_timeout_ms} ms")
        self.stats.acquisitions += 1
        return True

    def release_all(self, owner: Any) -> None:
        """Release every lock held by ``owner`` (commit/abort).

        O(locks held by the owner): the per-owner held-resource index
        avoids walking the whole lock table on every transaction end.
        """
        held_set = self._held.pop(owner, None)
        if not held_set:
            return
        locks = self._locks
        for resource in held_set:
            state = locks.get(resource)
            if state is None:
                continue
            if owner in state.holders:
                del state.holders[owner]
                if state.queue:
                    self._dispatch(resource, state)
            if not state.holders and not state.queue:
                del locks[resource]
                self._state_pool.append(state)

    def held_by(self, owner: Any) -> List[Any]:
        """Resources on which ``owner`` currently holds a lock."""
        held_set = self._held.get(owner)
        if not held_set:
            return []
        return [resource for resource in self._locks
                if resource in held_set]

    def _dispatch(self, resource: Any, state: _LockState) -> None:
        """Grant queued requests FIFO while compatible.

        Compatibility is checked against the holder bitmasks directly —
        no per-candidate mode-set union, and granting a queued request
        is a pure integer update.
        """
        exclusive = LockMode.EXCLUSIVE
        holders = state.holders
        queue = state.queue
        all_held = self._held
        while queue:
            owner, mode, grant = queue[0]
            compatible = True
            if mode is exclusive:
                for holder in holders:
                    if holder != owner:
                        compatible = False
                        break
            else:
                for holder, mask in holders.items():
                    if mask & _X_BIT and holder != owner:
                        compatible = False
                        break
            if not compatible:
                break
            queue.popleft()
            bit = _S_BIT if mode is LockMode.SHARED else _X_BIT
            held = holders.get(owner)
            holders[owner] = bit if held is None else held | bit
            held_set = all_held.get(owner)
            if held_set is None:
                held_set = all_held[owner] = set()
            held_set.add(resource)
            if not grant.triggered:
                grant.succeed(True)
