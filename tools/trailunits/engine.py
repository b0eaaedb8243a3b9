"""trailunits' binding to the shared analyzer runtime.

The interesting hooks: ``prepare`` builds the repo-wide signature and
attribute tables from *every* parsed file before any rule runs, so
dimensions propagate across module boundaries; ``make_context`` hands
each file a :class:`UnitsContext` that lazily runs the flow inference
once and shares the resulting issues between all TUN rules.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.trailunits.infer import Issue, analyze_functions
from tools.trailunits.rules import REGISTRY
from tools.trailunits.sigs import FuncSig, Tables

__all__ = ["SPEC", "TrailunitsSpec", "UnitsContext"]


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
