"""TRL009: suppression hygiene, enforced by the shared engine."""

from __future__ import annotations

from typing import Iterator

from tools.analysis.engine import FileContext
from tools.analysis.findings import Finding

from ..registry import REGISTRY, Rule


@REGISTRY.register
class SuppressionHygieneRule(Rule):
    """Placeholder so TRL009 is a registered, documented code.

    The actual checks live in :func:`tools.analysis.suppressions.
    check_hygiene`, because a suppression is "unused" only relative to
    the findings of the whole rule run.
    """

    code = "TRL009"
    name = "suppression-hygiene"
    summary = ("# trailint: disable=... comments must name known rule "
               "codes, actually suppress something, and give a reason")
    scope = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
