"""trailsan: yield-point atomicity analysis for the cooperative sim.

The simulation's concurrency model gives every process atomicity
*between* yields; trailsan checks that the code honors the invariants
that model implies.  Ground truth comes from annotations in the
analyzed sources::

    self._head = NULL_LBA   # trailsan: atomic_group(tail-chain)
    self._live = {}         # trailsan: atomic_group(tail-chain)

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  The static pass is paired with the runtime
sanitizer in ``repro.sim.sanitizer`` (enabled with ``TRAILSAN=1``),
which checks the same atomic groups at every context switch.
``TSN000`` doubles as the error code (unreadable / syntactically
invalid files) and the suppression-hygiene code.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)

from .model import ClassModel, FunctionScan, ModuleModel, build_module_model
from .rules import REGISTRY

__all__ = ["REGISTRY", "SPEC", "SanContext"]


class SanContext(FileContext):
    """One file's module model and per-function scans, computed once."""

    def __init__(self, path: str, comments: Comments,
                 tree: ast.Module) -> None:
        super().__init__(path, comments, tree)
        self.model: ModuleModel = build_module_model(tree, comments)
        self._scans: Optional[
            List[Tuple[FunctionScan, Optional[ClassModel]]]] = None

    def scans(self) -> List[Tuple[FunctionScan, Optional[ClassModel]]]:
        """(scan, owning class) for every module-level function and
        every method of every class, in source order."""
        if self._scans is None:
            self._scans = [
                (FunctionScan(node, self.model), None)
                for node in self.tree.body
                if isinstance(node, ast.FunctionDef)]
            self._scans.extend(
                (FunctionScan(method, self.model), cls)
                for cls in self.model.classes.values()
                for method in cls.methods.values())
        return self._scans


class TrailsanSpec(ToolSpec):
    """trailsan: yield-point atomicity analysis."""

    name = "trailsan"
    prefix = "TSN"
    error_code = "TSN000"
    hygiene_code = "TSN000"
    registry = REGISTRY

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> SanContext:
        assert parsed.tree is not None
        return SanContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailsanSpec()
