"""Edges of ``Simulation.step`` and ``run_interleaved``.

The single-step interface is the substrate under both the
interleaved-twin harness and the model checker's instance choice
points, so its edges have to be pinned: stepping an exhausted
simulation, interleaving zero instances, instances of very different
lengths sitting out late rounds, and an instance that can no longer
make progress mid-interleave.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Generator, List

import pytest

from repro.core.instance import run_interleaved
from repro.errors import SimulationError
from repro.sim import Simulation
from repro.sim.events import Event


def ticker(sim: Simulation, log: List[float],
           rounds: int) -> Generator[Event, Any, None]:
    for _ in range(rounds):
        yield sim.timeout(1.0)
        log.append(sim.now)


def interleavable(rounds: int):
    """A traced sim + completion event, shaped for run_interleaved."""
    sim = Simulation()
    sim.enable_trace()
    log: List[float] = []
    done = sim.process(ticker(sim, log, rounds), name="tick")
    return SimpleNamespace(sim=sim, log=log), done


class TestStep:
    def test_step_dispatches_exactly_one_event(self):
        holder, done = interleavable(rounds=3)
        sim = holder.sim
        before = len(sim.trace)
        assert sim.step()
        assert len(sim.trace) == before + 1

    def test_step_after_completion_returns_false(self):
        holder, done = interleavable(rounds=2)
        sim = holder.sim
        steps = 0
        while sim.step():
            steps += 1
        assert done.processed
        final_now = sim.now
        # Exhausted: further stepping is a refusal, not an error, and
        # moves neither the clock nor the trace.
        for _ in range(3):
            assert not sim.step()
        assert sim.now == final_now
        assert len(sim.trace) == steps

    def test_step_matches_run_until_ordering(self):
        solo, solo_done = interleavable(rounds=4)
        solo.sim.run_until(solo_done)

        stepped, stepped_done = interleavable(rounds=4)
        while not stepped_done.processed:
            assert stepped.sim.step()
        assert stepped.sim.trace == solo.sim.trace
        assert stepped.log == solo.log


class TestRunInterleaved:
    def test_zero_instances_is_a_noop(self):
        run_interleaved([])

    def test_mixed_length_runs_complete_and_match_solo(self):
        solo_traces = []
        for rounds in (2, 7):
            holder, done = interleavable(rounds)
            holder.sim.run_until(done)
            solo_traces.append(holder.sim.trace)

        short, short_done = interleavable(2)
        long, long_done = interleavable(7)
        run_interleaved([(short, short_done), (long, long_done)])
        assert short_done.processed and long_done.processed
        # The short instance sits out once its event fired; per-sim
        # order is untouched by the interleave.
        assert short.sim.trace == solo_traces[0]
        assert long.sim.trace == solo_traces[1]

    def test_completed_instance_is_not_stepped_again(self):
        short, short_done = interleavable(1)
        long, long_done = interleavable(5)
        run_interleaved([(short, short_done), (long, long_done)])
        final = len(short.sim.trace)
        assert not short.sim.step()
        assert len(short.sim.trace) == final

    def test_halted_instance_raises_mid_interleave(self):
        healthy, healthy_done = interleavable(5)
        stuck_sim = Simulation()
        orphan = stuck_sim.event()  # nothing will ever trigger it

        def waiter() -> Generator[Event, Any, None]:
            yield orphan

        stuck_done = stuck_sim.process(waiter(), name="stuck")
        stuck = SimpleNamespace(sim=stuck_sim)
        with pytest.raises(SimulationError,
                           match="interleaved event cannot fire"):
            run_interleaved([(healthy, healthy_done),
                             (stuck, stuck_done)])

    def test_single_instance_degenerates_to_run_until(self):
        solo, solo_done = interleavable(3)
        solo.sim.run_until(solo_done)

        alone, alone_done = interleavable(3)
        run_interleaved([(alone, alone_done)])
        assert alone_done.processed
        assert alone.sim.trace == solo.sim.trace
