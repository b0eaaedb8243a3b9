"""The one analyzer entry point: ``python -m tools.analysis [paths] [--json]``.

Resolves, parses and tokenizes every input file exactly once, then
hands the shared AST and comments to trailint, trailsan, trailunits
and trailiso in turn, and reports per-tool wall-clock so a newly slow
rule is visible in CI logs instead of hiding inside one number.

With no paths (``make analyzers``) each tool sees its own scope
(:attr:`ToolSpec.paths`) and a directory walk skips the fixture trees.
Paths named on the command line replace every tool's scope: a named
directory is walked the same way, with rule scopes applied, while a
named *file* gets every rule of every tool, scopes and fixture
excludes ignored — that is how a known-bad fixture is analyzed.
Rule ``exempt`` patterns hold either way.  Exit codes: 0 clean,
1 findings reported, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from tools.analysis.engine import (
    FIXTURES, ParsedFile, ToolSpec, check_file, parse, walk)
from tools.analysis.findings import Finding

NAME = "analyzers"


def _clock() -> float:
    """Wall-clock for the timing report only; never affects findings.

    This file is on TIS004's exempt perimeter (with the perf harness
    and the sanitizer): the driver measures each tool's wall-clock.
    """
    return time.perf_counter()


def _specs() -> List[ToolSpec]:
    """Every analyzer, in report order."""
    from tools.trailint.engine import SPEC as trailint_spec
    from tools.trailiso.engine import SPEC as trailiso_spec
    from tools.trailsan.engine import SPEC as trailsan_spec
    from tools.trailunits.engine import SPEC as trailunits_spec
    return [trailint_spec, trailsan_spec, trailunits_spec, trailiso_spec]


@dataclass
class ToolRun:
    """Outcome and timing of one tool over the shared parse."""

    name: str
    findings: List[Finding]
    files_checked: int
    suppressed: int
    seconds: float


@dataclass
class DriverReport:
    """Everything one run of every analyzer produced."""

    runs: List[ToolRun] = field(default_factory=list)
    files_parsed: int = 0
    parse_seconds: float = 0.0

    @property
    def findings(self) -> int:
        return sum(len(run.findings) for run in self.runs)

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + sum(run.seconds for run in self.runs)

    def tool(self, name: str) -> ToolRun:
        """The run of the tool called ``name``."""
        return next(run for run in self.runs if run.name == name)


def _in_scope(relpath: str, tool_paths: Sequence[str]) -> bool:
    return any(relpath == path or relpath.startswith(path + "/")
               for path in tool_paths)


def run_tool(spec: ToolSpec, files: Sequence[ParsedFile]) -> ToolRun:
    """One tool over its share of the parsed files, timed."""
    start = _clock()
    spec.load_rules()
    shared = spec.prepare(files)
    findings: List[Finding] = []
    suppressed = 0
    for parsed in files:
        kept, hidden = check_file(spec, parsed, shared)
        findings.extend(kept)
        suppressed += hidden
    return ToolRun(name=spec.name, findings=sorted(findings),
                   files_checked=len(files), suppressed=suppressed,
                   seconds=_clock() - start)


def run_all(root: Optional[str] = None,
            paths: Optional[Sequence[str]] = None) -> DriverReport:
    """Parse once, run every tool; ``paths`` replaces every scope."""
    base = os.path.abspath(root or os.getcwd())
    specs = _specs()
    union: List[str] = []
    for spec in specs:
        for path in (paths if paths is not None else spec.paths):
            if path not in union:
                union.append(path)
    report = DriverReport()
    start = _clock()
    parsed = [parse(*found) for found in walk(base, union, FIXTURES)]
    report.parse_seconds = _clock() - start
    report.files_parsed = len(parsed)
    for spec in specs:
        files = parsed if paths is not None else [
            one for one in parsed if _in_scope(one.relpath, spec.paths)]
        report.runs.append(run_tool(spec, files))
    return report


def _render_human(report: DriverReport) -> None:
    for run in report.runs:
        for finding in run.findings:
            print(finding.render())
    print(f"{NAME}: parsed {report.files_parsed} files once "
          f"in {report.parse_seconds:.2f}s")
    for run in report.runs:
        state = (f"{len(run.findings)} finding(s)" if run.findings
                 else "clean")
        print(f"  {run.name:<11} {run.files_checked:>4} files  "
              f"{state:<14} {run.suppressed:>2} suppressed "
              f"{run.seconds:6.2f}s")
    verdict = ("clean" if report.findings == 0
               else f"{report.findings} finding(s)")
    print(f"{NAME}: {len(report.runs)} tools {verdict} "
          f"in {report.total_seconds:.2f}s")


def _render_json(report: DriverReport) -> None:
    payload = {
        "tool": NAME,
        "files_parsed": report.files_parsed,
        "parse_seconds": round(report.parse_seconds, 4),
        "total_seconds": round(report.total_seconds, 4),
        "tools": {
            run.name: {
                "files_checked": run.files_checked,
                "findings": [f.as_dict() for f in run.findings],
                "suppressed": run.suppressed,
                "seconds": round(run.seconds, 4),
            }
            for run in report.runs
        },
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=NAME,
        description="run every repo-native analyzer over one shared "
                    "parse, with per-tool timing")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze instead "
                             "of each tool's own scope; a named file "
                             "gets every rule of every tool")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths "
                             "(default: cwd)")
    args = parser.parse_args(argv)
    try:
        report = run_all(root=args.root, paths=args.paths or None)
    except FileNotFoundError as exc:
        print(f"{NAME}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _render_json(report)
    else:
        _render_human(report)
    return 1 if report.findings else 0


__all__ = ["DriverReport", "ToolRun", "main", "run_all", "run_tool"]
