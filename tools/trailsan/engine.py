"""trailsan's binding to the shared analyzer runtime.

Walking, parsing, suppressions and hygiene live in
:mod:`tools.analysis`; this module keeps trailsan's public surface —
``SanConfig``, ``SanContext``, ``analyze_file``, ``run_paths`` —
exactly as it was before the extraction.  ``TSN000`` doubles as the
error code (unreadable / syntactically invalid files) and the
suppression-hygiene code, as it always has.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from tools.analysis.engine import (
    AnalyzerConfig, Comments, FileContext, ParsedFile, ToolSpec,
    check_file, parse_file)
from tools.analysis.engine import run_paths as _shared_run_paths
from tools.analysis.findings import Finding

from .model import (
    ClassModel, FunctionScan, ModuleModel, build_module_model)
from .rules import REGISTRY, Rule

__all__ = [
    "DEFAULT_EXCLUDE_PATTERNS", "Finding", "SPEC", "SanConfig",
    "SanContext", "TrailsanSpec", "analyze_file", "run_paths",
]

#: Paths (posix relpaths, fnmatch) never analyzed when discovered by a
#: directory walk.  The sanitizer fixtures are *deliberately* racy
#: code; they are analyzed by passing them explicitly.
DEFAULT_EXCLUDE_PATTERNS: Tuple[str, ...] = (
    "tests/san/fixtures/*",
    "tests/lint/fixtures/*",
    "tests/units/fixtures/*",
    "tests/iso/fixtures/*",
)


@dataclass
class SanConfig(AnalyzerConfig):
    """Which rules run and which files are skipped."""

    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE_PATTERNS

    def rules(self) -> List[Rule]:
        return self.selected(REGISTRY.all_rules())


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
    description = ("Yield-point atomicity and lock-discipline "
                   "analysis for the cooperative simulation "
                   "(guarded_by / atomic_group annotations).")
    default_paths = ("src",)
    default_exclude = DEFAULT_EXCLUDE_PATTERNS
    registry = REGISTRY
    config_class = SanConfig

    def load_rules(self) -> None:
        from . import rules as _rules  # noqa: F401  (populates the registry)

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> SanContext:
        assert parsed.tree is not None
        return SanContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailsanSpec()


def analyze_file(path: str, relpath: str, config: SanConfig,
                 explicit: bool = False) -> List[Finding]:
    """Analyze one file; returns post-suppression findings (sorted)."""
    SPEC.load_rules()
    parsed: ParsedFile = parse_file(SPEC, path, relpath, explicit)
    findings, _ = check_file(SPEC, parsed, config, None)
    return findings


def run_paths(paths: Sequence[str], root: Optional[str] = None,
              config: Optional[SanConfig] = None,
              ) -> Tuple[List[Finding], int]:
    """Analyze ``paths`` (files or directories) under ``root``.

    Returns ``(findings, files_checked)``.  Files named explicitly are
    analyzed with every rule regardless of rule scopes — this is how
    the known-bad fixtures under ``tests/san/fixtures`` are exercised.
    """
    return _shared_run_paths(SPEC, paths, root=root, config=config)
