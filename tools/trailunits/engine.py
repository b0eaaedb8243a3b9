"""trailunits' binding to the shared analyzer runtime.

The interesting hooks: ``prepare`` builds the repo-wide signature and
attribute tables from *every* parsed file before any rule runs, so
dimensions propagate across module boundaries; ``make_context`` hands
each file a :class:`UnitsContext` that lazily runs the flow inference
once and shares the resulting issues between all TUN rules.

trailunits is the only analyzer with ``require_reason=True``: a
``# trailunits: disable=TUNnnn`` comment must carry a ``-- reason`` or
it is itself a TUN000 finding.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.analysis.engine import run_paths as _shared_run_paths
from tools.analysis.findings import Finding
from tools.trailunits.infer import Issue, analyze_functions
from tools.trailunits.rules import REGISTRY
from tools.trailunits.sigs import FuncSig, Tables

__all__ = [
    "DEFAULT_EXCLUDE_PATTERNS", "Finding", "SPEC", "TrailunitsSpec",
    "UnitsContext", "run_paths",
]

#: Fixture trees are deliberately wrong code; they are analyzed by
#: naming them explicitly, never by a directory walk.
DEFAULT_EXCLUDE_PATTERNS: Tuple[str, ...] = (
    "tests/units/fixtures/*",
    "tests/lint/fixtures/*",
    "tests/san/fixtures/*",
    "tests/iso/fixtures/*",
)


class UnitsContext(FileContext):
    """Per-file context: cached inference issues + this file's sigs."""

    def __init__(self, path: str, comments: Comments, tree: ast.Module,
                 tables: Tables) -> None:
        super().__init__(path, comments, tree)
        self.tables = tables
        self._issues: Optional[List[Issue]] = None

    def issues(self) -> List[Issue]:
        if self._issues is None:
            self._issues = analyze_functions(self.tree, self.path,
                                             self.tables)
        return self._issues

    def file_sigs(self) -> List[FuncSig]:
        found = []
        for sigs in self.tables.functions.values():
            for sig in sigs:
                if sig.relpath == self.path:
                    found.append(sig)
        return sorted(found, key=lambda sig: sig.lineno)

    def sig_node(self, sig: FuncSig) -> ast.AST:
        """AST def node for a signature, for finding locations."""
        for node in ast.walk(self.tree):
            if (isinstance(node, (ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and node.lineno == sig.lineno):
                return node
        return self.tree


class TrailunitsSpec(ToolSpec):
    """trailunits: dimension and address-space flow analysis."""

    name = "trailunits"
    prefix = "TUN"
    error_code = "TUN000"
    hygiene_code = "TUN000"
    extra_known_codes = ("TUN000",)
    require_reason = True
    description = ("Dimension and address-space flow analysis for the "
                   "Trail reproduction: bytes vs sectors, ms vs s, and "
                   "log-disk vs data-disk LBAs, seeded from repro.units "
                   "annotations.")
    default_paths = ("src", "tools")
    default_exclude = DEFAULT_EXCLUDE_PATTERNS
    registry = REGISTRY

    def load_rules(self) -> None:
        import tools.trailunits.rules  # noqa: F401

    def prepare(self, files: Sequence[ParsedFile]) -> Tables:
        tables = Tables()
        for parsed in files:
            if parsed.tree is not None:
                tables.add_file(parsed.relpath, parsed.comments,
                                parsed.tree)
        return tables

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> UnitsContext:
        assert parsed.tree is not None
        tables = shared if isinstance(shared, Tables) else Tables()
        return UnitsContext(parsed.relpath, parsed.comments, parsed.tree,
                            tables)


SPEC = TrailunitsSpec()


def run_paths(paths: Sequence[str], root: Optional[str] = None,
              ) -> Tuple[List[Finding], int]:
    """Analyze ``paths`` under ``root`` with the full rule set."""
    return _shared_run_paths(SPEC, paths, root=root)
