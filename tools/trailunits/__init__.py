"""trailunits — time-scale flow analysis.

Simulated time in the Trail reproduction is milliseconds as ``float``;
seconds and microseconds appear only at the boundaries, and Python's
types cannot tell the three apart.  trailunits runs a flow-sensitive
inference over the AST — seeded from the ``repro.units`` time aliases
(``Ms``, ``Seconds``, ``Us``), ``# unit:`` signature comments, the
``units.*`` time converters and time-suggestive names (``*_ms``,
``*_us``, ``*_seconds``) — and reports TUN004 where two time scales
meet without a converter, and TUN008 where a core/disk/raid public
signature leaves a time-named value undeclared.

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  ``prepare`` tables every parsed file's
signatures before any rule runs, so dimensions propagate across
modules.  Suppressions must carry a reason::

    limit = budget + slack  # trailunits: disable=TUN004 -- slack is pre-scaled

A reason-less or unused suppression is itself a TUN000 finding.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.trailunits.infer import Issue, analyze_functions
from tools.trailunits.rules import REGISTRY
from tools.trailunits.sigs import FuncSig, Tables

__all__ = ["REGISTRY", "SPEC", "UnitsContext"]


class UnitsContext(FileContext):
    """Per-file context: cached inference issues + this file's sigs."""

    def __init__(self, path: str, comments: Comments, tree: ast.Module,
                 tables: Tables) -> None:
        super().__init__(path, comments, tree)
        self.tables = tables
        self._issues: Optional[List[Issue]] = None

    def issues(self) -> List[Issue]:
        if self._issues is None:
            self._issues = analyze_functions(self.tree, self.tables)
        return self._issues

    def file_sigs(self) -> List[FuncSig]:
        """Signatures defined in this file, in source order."""
        found = [sig for sigs in self.tables.functions.values()
                 for sig in sigs if sig.relpath == self.path]
        return sorted(found, key=lambda sig: getattr(sig.node, "lineno", 0))


class TrailunitsSpec(ToolSpec):
    """trailunits: time-scale flow analysis."""

    name = "trailunits"
    prefix = "TUN"
    error_code = "TUN000"
    hygiene_code = "TUN000"
    registry = REGISTRY

    def prepare(self, files: Sequence[ParsedFile]) -> Tables:
        tables = Tables()
        for parsed in files:
            if parsed.tree is not None:
                tables.add_file(parsed.relpath, parsed.comments,
                                parsed.tree)
        return tables

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> UnitsContext:
        assert parsed.tree is not None and isinstance(shared, Tables)
        return UnitsContext(parsed.relpath, parsed.comments, parsed.tree,
                            shared)


SPEC = TrailunitsSpec()
