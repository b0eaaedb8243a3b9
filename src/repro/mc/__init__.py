"""Bounded model-checking scenarios for the Trail stack.

``repro.sim.explore`` is the engine — schedule enumeration and
replay; this package is the harness that points it at the real
stack: two deterministic end-to-end scenarios (crash + recovery,
write-back under media faults) and the data-disk digest each must
hold invariant across every legal cooperative schedule.  The
checker's teeth are shown by the bug corpus (``make corpus``), whose
tail-chain tear both scenarios catch.

Run via ``repro mc`` (or ``make mc``)::

    PYTHONPATH=src python -m repro mc --budget 200
"""

from repro.mc.scenarios import SCENARIOS, Scenario, explore_scenario

__all__ = ["SCENARIOS", "Scenario", "explore_scenario"]
