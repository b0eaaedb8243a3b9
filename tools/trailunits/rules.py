"""The TUN rules: time-scale flow diagnostics.

The flow analysis in :mod:`tools.trailunits.infer` does the real work
and reports time-scale mixes; TUN004 renders them, and TUN008 reports
the signatures that analysis cannot check.

| code   | catches                                                       |
|--------|---------------------------------------------------------------|
| TUN004 | ms and s (or us) mixed without a time converter               |
| TUN008 | unit-less public signature in the core/disk/raid packages     |

``TUN000`` is the pass's own code: unreadable files and suppression
hygiene (every suppression must carry a ``-- reason``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator, Tuple

from tools.analysis.registry import Registry, Rule

if TYPE_CHECKING:
    from tools.analysis.findings import Finding
    from tools.trailunits import UnitsContext

#: The global TUN rule set; rules self-register at import time.
REGISTRY = Registry("TUN")


@REGISTRY.register
class TimeScaleConfusion(Rule):
    """TUN004: milliseconds and seconds (or us) mixed unconverted.

    Simulated time is milliseconds everywhere; seconds and
    microseconds exist only at the boundaries, behind
    ``units.seconds`` / ``units.microseconds`` / ``units.to_seconds``.
    """

    code = "TUN004"
    #: Dimensioned code lives in the library sources and the tools that
    #: analyze them; tests drive APIs with literals on purpose.
    scope: ClassVar[Tuple[str, ...]] = ("src/*", "tools/*")

    def check(self, ctx: "UnitsContext") -> Iterator["Finding"]:
        for issue in ctx.issues():
            yield ctx.finding(
                issue.node, self.code,
                f"time-scale confusion: {issue.value_dim} used where "
                f"{issue.target_dim} belongs ({issue.detail}); "
                f"convert with units.seconds/to_seconds/microseconds")


@REGISTRY.register
class UnitlessPublicSignature(Rule):
    """TUN008: core/disk/raid public APIs must declare their time scale.

    A parameter (or a function) whose *name* advertises a time scale
    (``delay_ms``, ``budget_seconds``, ``ms``) but whose signature
    carries neither a ``repro.units`` time annotation nor a
    ``# unit:`` comment is exactly the situation the flow analysis
    cannot check — so the signature itself is the finding.  Scoped to
    the packages where a wrong time scale corrupts the paper's
    latencies: ``repro.core``, ``repro.disk`` and ``repro.raid``.
    """

    code = "TUN008"
    scope = ("src/repro/core/*", "src/repro/disk/*", "src/repro/raid/*")

    def check(self, ctx: "UnitsContext") -> Iterator["Finding"]:
        for sig in ctx.file_sigs():
            parts = sig.qualname.split(".")
            if any(part.startswith("_") and part != "__init__"
                   for part in parts):
                continue
            loose = [param.name for param in sig.params if param.guessed]
            if sig.ret_guessed:
                loose.append("return")
            if not loose:
                continue
            yield ctx.finding(
                sig.node or ctx.tree, self.code,
                f"public signature of '{sig.qualname}' leaves "
                f"{', '.join(repr(name) for name in loose)} "
                f"unit-less; annotate with repro.units aliases or a "
                f"'# unit:' comment")
