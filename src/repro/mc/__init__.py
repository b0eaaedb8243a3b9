"""Bounded model-checking scenarios for the Trail stack.

``repro.sim.explore`` is the engine — schedule enumeration and
replay; this package is the harness that points it at the real
stack: three deterministic end-to-end scenarios (crash + recovery,
write-back under media faults, two interleaved instances),
the digests each must hold invariant across every legal cooperative
schedule, and seeded mutation fixtures that reintroduce historical
concurrency bugs so the checker's teeth stay verifiable.

Run via ``repro mc`` (or ``make mc``)::

    PYTHONPATH=src python -m repro mc --budget 200
"""

from repro.mc.mutation import MUTATIONS, tail_chain_tear
from repro.mc.scenarios import SCENARIOS, Scenario, explore_scenario

__all__ = [
    "MUTATIONS",
    "SCENARIOS",
    "Scenario",
    "explore_scenario",
    "tail_chain_tear",
]
