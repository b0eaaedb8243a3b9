"""Shared analyzer runtime for trailint, trailsan, trailunits and trailiso.

The four repo-native analyzers differ only in their rules and per-file
models; everything operational is defined once here:

* :class:`~tools.analysis.findings.Finding` — the one diagnostic shape.
* :class:`~tools.analysis.registry.Registry` /
  :class:`~tools.analysis.registry.Rule` — per-tool rule sets.
* :mod:`~tools.analysis.suppressions` — the ``# <tool>: disable=``
  grammar, optional ``-- reason`` capture, and hygiene policing.
* :mod:`~tools.analysis.engine` — walking, parsing, the one
  :func:`~tools.analysis.engine.read_comments` pass every suppression
  and annotation grammar reads, scope matching, and the
  :class:`~tools.analysis.engine.ToolSpec` each tool fills in.
* :mod:`~tools.analysis.cli` — the common argparse front-end.
* :mod:`~tools.analysis.fixtures` — fixture helpers for the test
  suites.
"""

from tools.analysis.engine import (
    AnalyzerConfig, FileContext, ParsedFile, RunReport, ToolSpec,
    check_file, read_comments, run, run_paths, walk)
from tools.analysis.findings import Finding
from tools.analysis.registry import Registry, Rule, dotted_name
from tools.analysis.suppressions import (
    Suppressions, parse_suppressions, suppression_pattern)

__all__ = [
    "AnalyzerConfig",
    "FileContext",
    "Finding",
    "ParsedFile",
    "Registry",
    "Rule",
    "RunReport",
    "Suppressions",
    "ToolSpec",
    "check_file",
    "dotted_name",
    "parse_suppressions",
    "read_comments",
    "run",
    "run_paths",
    "suppression_pattern",
    "walk",
]
