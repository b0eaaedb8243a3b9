"""trailiso's binding to the shared analyzer runtime.

One :class:`IsoContext` per file caches the isolation model (module
state, annotations, escape flow, ambient reads) so every TIS rule
reads the same single computation.
"""

from __future__ import annotations

import ast
from typing import Optional

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.analysis.findings import Finding
from tools.trailiso.model import ModuleModel, collect_state
from tools.trailiso.rules import REGISTRY

__all__ = ["IsoContext", "SPEC", "TrailisoSpec"]


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
    registry = REGISTRY

    def load_rules(self) -> None:
        import tools.trailiso.rules  # noqa: F401

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> IsoContext:
        assert parsed.tree is not None
        return IsoContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailisoSpec()
