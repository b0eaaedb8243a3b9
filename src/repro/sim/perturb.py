"""Seeded ready-queue tie-break perturbation.

The kernel dispatches same-time events in scheduling (sequence) order.
Correct components must not *depend* on that tie-break: any total
order consistent with simulated time is a legal cooperative schedule,
and state that survives every such order is what the sanitizer's
atomic groups (:mod:`repro.sim.sanitizer`) promise.
:class:`PerturbedSimulation` makes the promise testable: it installs a :class:`~repro.sim.control.SeededShufflePolicy`
on the shared :class:`~repro.sim.control.ControlledReady` hook, so
each seed explores a different (but reproducible) interleaving of
same-time events while cross-time ordering stays exact.

The same hook drives the bounded schedule explorer
(:mod:`repro.sim.explore`); perturbation is simply the "random walk"
policy where the explorer is the "systematic enumeration" one.

Use it exactly like :class:`~repro.sim.kernel.Simulation`::

    sim = PerturbedSimulation(seed=7)
    ...
    sim.run()

Same seed, same schedule; different seed, different same-time order.
"""

from __future__ import annotations

from random import Random
from typing import Deque, cast

from repro.sim.control import ControlledReady, Entry, SeededShufflePolicy
from repro.sim.kernel import Simulation


class PerturbedSimulation(Simulation):
    """A :class:`Simulation` with seeded same-time dispatch shuffling."""

    def __init__(self, seed: int, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self.seed = seed
        # The kernel only uses the deque subset ControlledReady
        # provides; the cast keeps the hot loop's declared type intact.
        self._ready = cast(
            "Deque[Entry]",
            ControlledReady(SeededShufflePolicy(Random(seed))))
