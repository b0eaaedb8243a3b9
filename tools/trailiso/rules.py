"""The TIS rules: cross-instance isolation diagnostics.

Two Trail stacks sharing one process must not observe each other; the
model in :mod:`tools.trailiso.model` finds the ways they could, and
each rule here owns one of them.  Both are scoped to the library
sources and the tools that analyze them; tests construct shared state
on purpose.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator, Tuple

from tools.analysis.registry import Registry, Rule

if TYPE_CHECKING:
    from tools.analysis.findings import Finding
    from tools.trailiso import IsoContext

#: The global TIS rule set; rules self-register at import time.
REGISTRY = Registry("TIS")

_LIB_SCOPE: Tuple[str, ...] = ("src/repro/*", "tools/*")


@REGISTRY.register
class ModuleMutableState(Rule):
    """TIS001: a mutable container or counter bound at module scope.

    A module object is a process-wide singleton: a list/dict/set/
    bytearray (or an ``itertools.count`` id source) bound there is
    shared by every Trail instance in the process, so one instance's
    writes leak into another's reads.  Freeze it
    (``MappingProxyType``/``frozenset``/``tuple``) or lift it into an
    instance.
    """

    code = "TIS001"
    scope: ClassVar[Tuple[str, ...]] = _LIB_SCOPE

    def check(self, ctx: "IsoContext") -> Iterator["Finding"]:
        for binding in ctx.model.mutables:
            yield ctx.finding(
                binding.node, self.code,
                f"module-level '{binding.name}' binds a mutable "
                f"{binding.kind}: shared by every Trail instance in "
                f"the process; freeze it or lift it into an instance")


@REGISTRY.register
class AmbientSingletonRead(Rule):
    """TIS004: reading process-global ambient state.

    ``random.*`` module functions share one hidden ``Random``;
    ``time.*`` reads the host clock; ``os.environ`` is process-wide
    configuration.  All three make two same-seed instances diverge.
    Seeded ``random.Random`` instances and simulated time are the
    replacements; environment flags live behind the sanitizer
    perimeter (``repro.sim.sanitizer``) and wall-clock measurement
    behind the perf harness (``repro.analysis.perf``).
    """

    code = "TIS004"
    scope: ClassVar[Tuple[str, ...]] = _LIB_SCOPE
    exempt = ("src/repro/sim/sanitizer.py", "src/repro/analysis/perf.py")

    def check(self, ctx: "IsoContext") -> Iterator["Finding"]:
        for node, what in ctx.model.ambient:
            yield ctx.finding(
                node, self.code,
                f"ambient-singleton read: {what}; use a seeded "
                f"random.Random / simulated time, or move the read "
                f"behind the sanitizer or perf perimeter")
