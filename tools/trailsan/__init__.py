"""trailsan: yield-point atomicity analysis for the cooperative sim.

The simulation's concurrency model gives every process atomicity
*between* yields; trailsan checks that the code actually honors the
invariants that model implies.  Ground truth comes from lightweight
annotations in the analyzed sources::

    self._tail = 0          # trailsan: guarded_by(_tail_lock)
    self._head = NULL_LBA   # trailsan: atomic_group(tail-chain)
    self._live = {}         # trailsan: atomic_group(tail-chain)

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  The static pass is paired with the runtime
sanitizer in ``repro.sim.sanitizer`` (enabled with ``TRAILSAN=1``),
which checks the same atomic groups at every context switch.
"""

from .engine import SPEC, SanContext
from .rules import REGISTRY, Rule

__all__ = ["REGISTRY", "Rule", "SPEC", "SanContext"]
