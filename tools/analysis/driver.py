"""One-parse driver for the repo-native analyzers (``make analyzers``).

Running the four lint passes as separate processes reads and parses
the overlapping ``src``/``tests``/``tools`` trees up to four times
and pays four interpreter start-ups.  This driver resolves, parses
and tokenizes every input file exactly once, then hands the shared
AST and comments to each tool in turn — preserving each tool's path
scope (the same path sets the individual Makefile targets pass),
exclude patterns, suppression handling, and exit semantics — and
reports per-tool wall-clock so a newly slow rule is visible in CI logs
instead of hiding inside one aggregate number.

The per-file work is byte-identical to the standalone tools: the
driver reuses :func:`tools.analysis.engine.check_file` and each
tool's own ``ToolSpec``, so a finding (or a suppression, or a
hygiene complaint) appears here exactly when the standalone run
would emit it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, Tuple

_TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPO_ROOT = os.path.dirname(_TOOLS_DIR)
for _extra in (_TOOLS_DIR, _REPO_ROOT):
    # trailint's rule modules import as bare ``trailint.*`` (they are
    # run with PYTHONPATH=tools); the other tools as ``tools.*``.
    if _extra not in sys.path:
        sys.path.insert(0, _extra)

from tools.analysis.engine import (
    Comments, ParsedFile, ToolSpec, check_file, read_comments, walk)
from tools.analysis.findings import Finding

NAME = "analyzers"


def _clock() -> float:
    """Wall-clock for the timing report only; never affects findings.

    This file is on TIS004's exempt perimeter (with the perf harness
    and the sanitizer): the driver measures each tool's wall-clock.
    """
    return time.perf_counter()


def _specs() -> List[Tuple[ToolSpec, Tuple[str, ...]]]:
    """Every driven tool with the path scope its Makefile target uses."""
    from tools.trailint.engine import SPEC as trailint_spec
    from tools.trailiso.engine import SPEC as trailiso_spec
    from tools.trailsan.engine import SPEC as trailsan_spec
    from tools.trailunits.engine import SPEC as trailunits_spec
    return [
        (trailint_spec, ("src", "tests", "tools")),
        (trailsan_spec, ("src", "tools")),
        (trailunits_spec, ("src", "tools")),
        (trailiso_spec, ("src", "tools")),
    ]


@dataclass
class RawFile:
    """One input file, read and parsed exactly once, tool-agnostic."""

    path: str
    relpath: str
    tree: Optional[ast.Module] = None
    comments: Comments = field(default_factory=list)
    #: (line, col, message) when unreadable or syntactically invalid;
    #: re-wrapped under each tool's own error code at check time.
    error: Optional[Tuple[int, int, str]] = None


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
    """Everything one ``make analyzers`` invocation produced."""

    runs: List[ToolRun] = field(default_factory=list)
    files_parsed: int = 0
    parse_seconds: float = 0.0

    @property
    def findings(self) -> int:
        return sum(len(run.findings) for run in self.runs)

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + sum(run.seconds for run in self.runs)

    @property
    def saved_parse_seconds(self) -> float:
        """Reparse time the single pass avoided.

        Standalone, every tool re-reads and re-parses its own scope;
        here the union is parsed once.  The estimate prices each
        avoided file-parse at this run's measured per-file cost, so
        CI can report the saving without running the tools twice.
        """
        if not self.files_parsed:
            return 0.0
        per_file = self.parse_seconds / self.files_parsed
        standalone = sum(run.files_checked for run in self.runs)
        return max(0, standalone - self.files_parsed) * per_file


def parse_once(root: str, paths: Sequence[str]) -> List[RawFile]:
    """Resolve and parse the union of every tool's inputs, once."""
    raws: List[RawFile] = []
    for full, rel, _explicit in walk(root, paths, ()):
        raw = RawFile(path=full, relpath=rel)
        try:
            with open(full, encoding="utf-8") as handle:
                source = handle.read()
            raw.tree = ast.parse(source, filename=rel)
            raw.comments = read_comments(source)
        except (OSError, UnicodeDecodeError) as exc:
            raw.error = (1, 1, f"cannot read file: {exc}")
        except SyntaxError as exc:
            raw.error = (exc.lineno or 1, (exc.offset or 0) + 1,
                         f"syntax error: {exc.msg}")
        raws.append(raw)
    return raws


def _in_scope(relpath: str, tool_paths: Sequence[str]) -> bool:
    return any(relpath == path or relpath.startswith(path + "/")
               for path in tool_paths)


def _tool_files(spec: ToolSpec, raws: Sequence[RawFile],
                tool_paths: Sequence[str],
                exclude: Tuple[str, ...]) -> List[ParsedFile]:
    """The tool's view of the shared parse: scoped, excluded, wrapped."""
    files: List[ParsedFile] = []
    for raw in raws:
        if not _in_scope(raw.relpath, tool_paths):
            continue
        if any(fnmatch(raw.relpath, pattern) for pattern in exclude):
            continue
        parsed = ParsedFile(path=raw.path, relpath=raw.relpath,
                            explicit=False, tree=raw.tree,
                            comments=raw.comments)
        if raw.error is not None:
            line, col, message = raw.error
            parsed.error = Finding(path=raw.relpath, line=line, col=col,
                                   code=spec.error_code, message=message)
        files.append(parsed)
    return files


def run_tool(spec: ToolSpec, raws: Sequence[RawFile],
             tool_paths: Sequence[str]) -> ToolRun:
    """One tool over the shared parse, timed."""
    start = _clock()
    spec.load_rules()
    config = spec.make_config()
    files = _tool_files(spec, raws, tool_paths, config.exclude)
    shared = spec.prepare(files)
    findings: List[Finding] = []
    suppressed = 0
    for parsed in files:
        kept, hidden = check_file(spec, parsed, config, shared)
        findings.extend(kept)
        suppressed += hidden
    return ToolRun(name=spec.name, findings=sorted(findings),
                   files_checked=len(files), suppressed=suppressed,
                   seconds=_clock() - start)


def run_all(root: Optional[str] = None,
            paths: Optional[Sequence[str]] = None) -> DriverReport:
    """Parse once, run every tool; ``paths`` overrides every scope."""
    base = os.path.abspath(root or os.getcwd())
    specs = _specs()
    union: List[str] = []
    for _spec, tool_paths in specs:
        for path in (paths if paths is not None else tool_paths):
            if path not in union:
                union.append(path)
    report = DriverReport()
    start = _clock()
    raws = parse_once(base, union)
    report.parse_seconds = _clock() - start
    report.files_parsed = len(raws)
    for spec, tool_paths in specs:
        scope = tuple(paths) if paths is not None else tool_paths
        report.runs.append(run_tool(spec, raws, scope))
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
              f"{state:<14} {run.seconds:6.2f}s")
    verdict = ("clean" if report.findings == 0
               else f"{report.findings} finding(s)")
    print(f"{NAME}: {len(report.runs)} tools {verdict} "
          f"in {report.total_seconds:.2f}s "
          f"(single pass saved ~{report.saved_parse_seconds:.2f}s "
          f"of reparsing)")


def _render_json(report: DriverReport) -> None:
    payload = {
        "tool": NAME,
        "files_parsed": report.files_parsed,
        "parse_seconds": round(report.parse_seconds, 4),
        "total_seconds": round(report.total_seconds, 4),
        "saved_parse_seconds": round(report.saved_parse_seconds, 4),
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
                        help="override every tool's path scope "
                             "(default: each tool's Makefile scope)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", help="shorthand for --format json")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths "
                             "(default: cwd)")
    args = parser.parse_args(argv)
    try:
        report = run_all(root=args.root, paths=args.paths or None)
    except FileNotFoundError as exc:
        print(f"{NAME}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _render_json(report)
    else:
        _render_human(report)
    return 1 if report.findings else 0


__all__ = ["DriverReport", "RawFile", "ToolRun", "main", "parse_once",
           "run_all", "run_tool"]
