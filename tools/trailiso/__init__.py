"""trailiso — cross-instance isolation analysis.

The multi-Trail direction (ROADMAP item 1: N shards in one process)
holds only if nothing in ``repro.*`` leaks state between two Trail
stacks sharing an interpreter.  trailiso checks that statically:
module-level mutable containers (TIS001), class-attribute defaults
shared across instances (TIS002), ``Simulation``/``TrailDriver``
values escaping into module- or class-level storage via a taint flow
over function bodies (TIS003), ambient-singleton reads — ``random.*``
module functions, ``time.*``, ``os.environ`` — outside the sanitizer
and perf perimeters (TIS004), and constructor context parameters
stored anywhere other than ``self`` (TIS005).

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  A deliberately shared constant is blessed with
an annotation (reason required)::

    # trailiso: shared_immutable -- frozen registry, built at import
    SCENARIOS: Mapping[str, Scenario] = MappingProxyType({...})

Suppressions (``# trailiso: disable=TISnnn -- reason``) exist for
completeness but the swept tree carries none; TIS000 polices both
suppression and annotation hygiene.  The static pass is paired with
a runtime twin in tier-1: the interleaved multi-instance harness in
``tests/integration/test_two_instances.py`` proving byte-identical
solo-vs-concurrent runs.
"""

from tools.trailiso.engine import SPEC, IsoContext
from tools.trailiso.rules import REGISTRY

__all__ = ["IsoContext", "REGISTRY", "SPEC"]
