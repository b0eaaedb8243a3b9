"""The TSN rule: yield-point atomicity of declared atomic groups.

The rule consumes the pre-computed :class:`FunctionScan` write streams
(one per function) cached on the context, so a file is parsed and
segmented once.

| code   | catches                                                      |
|--------|--------------------------------------------------------------|
| TSN003 | atomic-group members torn across different atomic segments   |
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, ClassVar, Dict, Iterator, Optional, Set, Tuple)

from tools.analysis.registry import Registry, Rule

from .model import FunctionScan, Touch

if TYPE_CHECKING:
    from tools.analysis.findings import Finding

    from . import SanContext

#: The global TSN rule set; rules self-register at import time via
#: ``@REGISTRY.register``.
REGISTRY = Registry("TSN")


@REGISTRY.register
class TornAtomicGroup(Rule):
    """TSN003: invariant pair updated in different atomic segments.

    Members of one ``atomic_group`` must be updated together between
    yields.  Writing member A in one segment and member B in another —
    with neither segment updating both — leaves a window where a
    scheduled peer observes the pair torn.
    """

    code = "TSN003"
    name = "torn-atomic-group"
    summary = ("atomic_group members written in different atomic "
               "segments, exposing a torn invariant at the yield")
    scope: ClassVar[Tuple[str, ...]] = ("src/repro/*", "tools/*")

    def check(self, ctx: "SanContext") -> Iterator["Finding"]:
        for scan, cls in ctx.scans():
            groups = (cls.groups if cls is not None
                      else ctx.model.module_groups)
            for group_name, members in groups.items():
                if len(members) < 2:
                    continue
                finding = self._check_group(ctx, scan, group_name,
                                            set(members))
                if finding is not None:
                    yield finding

    def _check_group(self, ctx: "SanContext", scan: FunctionScan,
                     group_name: str, members: Set[str],
                     ) -> Optional["Finding"]:
        writes: Dict[int, Set[str]] = {}
        first: Dict[Tuple[str, int], Touch] = {}
        for touch in scan.touches:
            if touch.name not in members:
                continue
            writes.setdefault(touch.segment, set()).add(touch.name)
            first.setdefault((touch.name, touch.segment), touch)
        segments = sorted(writes)
        for i, seg_a in enumerate(segments):
            for seg_b in segments[i + 1:]:
                for m_a in writes[seg_a]:
                    for m_b in writes[seg_b]:
                        if (m_a != m_b
                                and m_b not in writes[seg_a]
                                and m_a not in writes[seg_b]):
                            where = first[(m_b, seg_b)]
                            return ctx.finding(
                                where.node, self.code,
                                f"atomic_group({group_name}) torn in "
                                f"'{scan.func.name}': '{m_a}' and "
                                f"'{m_b}' are updated in different "
                                f"atomic segments (a yield separates "
                                f"them)")
        return None
