"""trailiso's binding to the shared analyzer runtime.

One :class:`IsoContext` per file caches the isolation model (module
state, annotations, escape flow, ambient reads) so every TIS rule
reads the same single computation.  trailiso requires a ``-- reason``
on every suppression, like trailunits — and the swept tree carries
none: ``make iso`` is clean with zero suppressions by construction.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.analysis.engine import run_paths as _shared_run_paths
from tools.analysis.findings import Finding
from tools.trailiso.model import ModuleModel, collect_state
from tools.trailiso.rules import REGISTRY

__all__ = [
    "DEFAULT_EXCLUDE_PATTERNS", "Finding", "IsoContext", "SPEC",
    "TrailisoSpec", "run_paths",
]

#: Fixture trees are deliberately wrong code; they are analyzed by
#: naming them explicitly, never by a directory walk.
DEFAULT_EXCLUDE_PATTERNS: Tuple[str, ...] = (
    "tests/iso/fixtures/*",
    "tests/units/fixtures/*",
    "tests/lint/fixtures/*",
    "tests/san/fixtures/*",
)


class IsoContext(FileContext):
    """Per-file context: the cached isolation model."""

    def __init__(self, path: str, comments: Comments,
                 tree: ast.Module) -> None:
        super().__init__(path, comments, tree)
        self._model: Optional[ModuleModel] = None

    def model(self) -> ModuleModel:
        if self._model is None:
            self._model = collect_state(self.tree, self.comments)
        return self._model

    def line_finding(self, line: int, code: str,
                     message: str) -> Finding:
        return Finding(path=self.path, line=line, col=1, code=code,
                       message=message)


class TrailisoSpec(ToolSpec):
    """trailiso: cross-instance isolation analysis."""

    name = "trailiso"
    prefix = "TIS"
    error_code = "TIS000"
    hygiene_code = "TIS000"
    extra_known_codes = ("TIS000",)
    require_reason = True
    description = ("Cross-instance isolation analysis for the Trail "
                   "reproduction: module-level mutable state, shared "
                   "class defaults, Simulation/TrailDriver context "
                   "escapes, and ambient-singleton reads.")
    default_paths = ("src", "tools")
    default_exclude = DEFAULT_EXCLUDE_PATTERNS
    registry = REGISTRY

    def load_rules(self) -> None:
        import tools.trailiso.rules  # noqa: F401

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> IsoContext:
        assert parsed.tree is not None
        return IsoContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailisoSpec()


def run_paths(paths: Sequence[str], root: Optional[str] = None,
              ) -> Tuple[List[Finding], int]:
    """Analyze ``paths`` under ``root`` with the full rule set."""
    return _shared_run_paths(SPEC, paths, root=root)
