"""trailsan's binding to the shared analyzer runtime.

Walking, parsing, suppressions and hygiene live in
:mod:`tools.analysis`.  ``TSN000`` doubles as the error code
(unreadable / syntactically invalid files) and the
suppression-hygiene code.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)

from .model import (
    ClassModel, FunctionScan, ModuleModel, build_module_model)
from .rules import REGISTRY

__all__ = ["SPEC", "SanContext", "TrailsanSpec"]


class SanContext(FileContext):
    """Everything a rule may look at for one file.

    The module model and the per-function scans are computed once and
    shared by every rule.
    """

    def __init__(self, path: str, comments: Comments,
                 tree: ast.Module) -> None:
        super().__init__(path, comments, tree)
        self._model: Optional[ModuleModel] = None
        self._scans: Optional[
            List[Tuple[FunctionScan, Optional[ClassModel]]]] = None

    def model(self) -> ModuleModel:
        if self._model is None:
            self._model = build_module_model(self.tree, self.comments)
        return self._model

    def scans(self) -> List[Tuple[FunctionScan, Optional[ClassModel]]]:
        """(scan, owning class) for every module-level function and
        every method of every class, in source order."""
        if self._scans is not None:
            return self._scans
        model = self.model()
        scans: List[Tuple[FunctionScan, Optional[ClassModel]]] = []
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                scans.append((FunctionScan(node, model, None), None))
        for cls in model.classes.values():
            for method in cls.methods.values():
                scans.append((FunctionScan(method, model, cls), cls))
        self._scans = scans
        return scans


class TrailsanSpec(ToolSpec):
    """trailsan: yield-point atomicity and lock-discipline analysis."""

    name = "trailsan"
    prefix = "TSN"
    error_code = "TSN000"
    hygiene_code = "TSN000"
    extra_known_codes = ("TSN000",)
    registry = REGISTRY

    def load_rules(self) -> None:
        from . import rules as _rules  # noqa: F401  (populates the registry)

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> SanContext:
        assert parsed.tree is not None
        return SanContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailsanSpec()
