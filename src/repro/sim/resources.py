"""Shared-resource primitives built on the event kernel.

The disk simulator and drivers use these to model request queues:

* :class:`Resource` — ``capacity`` concurrent holders, FIFO waiters.
  Models the latches and I/O locks of the layers above the disk (the
  drive itself keeps its own command queue, see :mod:`repro.disk`).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Models the log-disk request queue that the batching logic drains.

Requests are events; a process acquires with ``yield resource.request()``
and must eventually call ``resource.release(request)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulation


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "enqueued_at", "granted_at")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.enqueued_at = resource.sim.now
        self.granted_at: Optional[float] = None

    @property
    def wait_time(self) -> Optional[float]:
        """Queueing delay experienced by this request, if granted."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.enqueued_at


class Resource:
    """A resource with fixed capacity and FIFO waiters."""

    def __init__(self, sim: "Simulation", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._holders: List[Request] = []
        self._waiters: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting to be granted."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim the resource; the returned event fires when granted."""
        req = Request(self)
        self._waiters.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Release a granted request, waking the next waiter if any."""
        if request not in self._holders:
            if self.cancel(request):
                return  # cancelled while still queued
            raise SimulationError("release() of a request that is not held")
        self._holders.remove(request)
        self._dispatch()

    def cancel(self, request: Request) -> bool:
        """Withdraw a queued request.  Returns False if already granted."""
        try:
            self._waiters.remove(request)
            return True
        except ValueError:
            return False

    def _dispatch(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            req = self._waiters.popleft()
            req.granted_at = self.sim.now
            self._holders.append(req)
            req.succeed(req)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available.  ``drain`` removes and
    returns every queued item synchronously — this is exactly the
    operation Trail's interrupt handler performs when it batches "all
    the requests currently in the log disk queue" (§4.2).
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of queued items, oldest first."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the oldest item once available."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return all queued items (may be empty)."""
        items = list(self._items)
        self._items.clear()
        return items
