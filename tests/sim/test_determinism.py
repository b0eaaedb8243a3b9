"""Determinism gate: the optimized kernel preserves event ordering.

``tests/sim/golden_tpcc_trace.json`` holds the ``(time, sequence)``
dispatch order of a fixed seeded TPC-C run.  If any optimization
reorders even one event — a changed sequence number, a float that
rounds differently — the sha256 here changes and this test fails.

This is the strongest claim a perf PR makes: not "the results look
the same" but "the simulation executes the identical event sequence".

A PR that removes events on purpose re-captures ``events``/``sha256``
and says why; ``image_sha256`` — the digest of every sector the run
left on the log and data drives — is the part such a PR must NOT
move.  It was captured before the drive's process-per-command service
(4 events per command, 4,788 in this run) became a callback machine
(2 per command, 3,506) and held across that change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.instance import TrailInstance
from repro.sim.kernel import Simulation
from repro.tpcc import TpccRunConfig, run_tpcc

GOLDEN_PATH = Path(__file__).parent / "golden_tpcc_trace.json"


def _trace_digest(trace) -> str:
    lines = "\n".join("%r,%d" % (when, sequence) for when, sequence in trace)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_seeded_tpcc_event_order_matches_golden_trace(monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())

    # run_tpcc builds its own Simulation internally, so tracing is
    # switched on for every simulation created during the run (the run
    # creates exactly one) and all pairs land in one shared list.
    trace = []
    original_init = Simulation.__init__

    def tracing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._trace = trace

    monkeypatch.setattr(Simulation, "__init__", tracing_init)

    # ... and it builds exactly one TrailInstance, whose drives hold
    # the disk images.
    instances = []
    original_instance_init = TrailInstance.__init__

    def capturing_init(self, *args, **kwargs):
        original_instance_init(self, *args, **kwargs)
        instances.append(self)

    monkeypatch.setattr(TrailInstance, "__init__", capturing_init)
    run_tpcc(TpccRunConfig(
        system=golden["system"],
        transactions=golden["transactions"],
        concurrency=golden["concurrency"],
        seed=golden["seed"]))

    assert len(trace) == golden["events"]
    assert _trace_digest(trace) == golden["sha256"]
    (instance,) = instances
    assert instance.fingerprint() == golden["image_sha256"]


def test_identical_runs_produce_identical_traces():
    """Two runs of the same seed dispatch byte-identical event orders."""
    digests = []
    for _ in range(2):
        sim = Simulation()
        trace = sim.enable_trace()

        def worker(sim, count):
            for index in range(count):
                yield sim.timeout(0.1 * (index % 3))
                event = sim.event()
                event.succeed(index)
                yield event

        sim.process(worker(sim, 50))
        sim.process(worker(sim, 50))
        sim.run()
        digests.append(_trace_digest(trace))
    assert digests[0] == digests[1]
