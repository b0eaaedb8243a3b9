"""Fixture-running helpers shared by the analyzer test suites.

Known-good / known-bad fixture files drive every analyzer's tests.
This module gives those suites one way to analyze a single fixture —
the same :func:`~tools.analysis.driver.run_all` path as
``python -m tools.analysis <fixture>`` — one in-process command line,
one shared sweep of the real trees, and one way to declare
expectations *inside* the fixture::

    _CACHE = {}    # expect: TIS001

``expected_findings`` collects those markers as ``(code, line)`` pairs
so a test can assert the analyzer reports exactly the seeded
violations — same codes, same lines, nothing extra.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
from typing import Set, Sequence, Tuple

from tools.analysis.driver import DriverReport, ToolRun, main, run_all
from tools.analysis.findings import Finding

_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z]{3}\d{3}"
                     r"(?:\s*,\s*[A-Z]{3}\d{3})*)")


def analyze_fixture(tool: str, path: str, root: str) -> ToolRun:
    """``tool``'s run over one named file (every rule, as on the CLI)."""
    return run_all(root=root, paths=[path]).tool(tool)


@functools.lru_cache(maxsize=None)
def repo_sweep(root: str) -> DriverReport:
    """The default-scope run (``make analyzers``), made once per session
    and shared by every pass's "the real trees are clean" test."""
    return run_all(root=root)


def run_cli(root: str, *args: str) -> Tuple[int, str]:
    """``python -m tools.analysis --root root *args`` in-process:
    the exit code and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--root", root, *args])
    return code, out.getvalue()


def expected_findings(path: str) -> Set[Tuple[str, int]]:
    """``(code, line)`` pairs declared by ``# expect:`` markers."""
    expected: Set[Tuple[str, int]] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, text in enumerate(handle, start=1):
            match = _EXPECT.search(text)
            if match is None:
                continue
            for code in match.group("codes").replace(" ", "").split(","):
                expected.add((code, lineno))
    return expected


def found_pairs(findings: Sequence[Finding]) -> Set[Tuple[str, int]]:
    """``(code, line)`` pairs of actual findings, for set comparison."""
    return {(finding.code, finding.line) for finding in findings}
