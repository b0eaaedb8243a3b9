"""Suppression-comment parsing and hygiene, shared by every analyzer.

The grammar is the one trailint introduced, parameterized by the tool
name and code prefix::

    # trailsan: disable-file=TSN004 -- generated process table
    lba = raw * 2                # trailunits: disable=TUN003 -- raw is a byte offset here

A trailing ``disable`` suppresses the named code(s) on its own line;
``disable-file`` on a comment-only line suppresses for the whole file.
Every tool requires the `` -- reason``: a used suppression without one
is itself a hygiene finding, so every suppression says why it is there.

Hygiene findings (unknown code, unused suppression, missing reason)
are emitted under the tool's dedicated hygiene code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Pattern, Set, Tuple

from tools.analysis.findings import Finding

if TYPE_CHECKING:
    from tools.analysis.engine import Comments, ToolSpec


@dataclass
class Suppressions:
    """Parsed suppression comments for one file."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)
    #: ``(line, code, file_wide, has_reason)`` tuples as written, for
    #: hygiene bookkeeping.
    declared: List[Tuple[int, str, bool, bool]] = field(
        default_factory=list)


def suppression_pattern(tool_name: str, prefix: str) -> Pattern[str]:
    """Compiled suppression-comment pattern for one tool."""
    return re.compile(
        rf"#\s*{tool_name}:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
        rf"(?P<codes>{prefix}\d{{3}}(?:\s*,\s*{prefix}\d{{3}})*)"
        rf"(?:\s*--\s*(?P<reason>\S.*?))?\s*$")


def parse_suppressions(comments: "Comments",
                       pattern: Pattern[str]) -> Suppressions:
    """Collect every suppression among one file's ``(line, text)``
    comments."""
    sup = Suppressions()
    for line, text in comments:
        match = pattern.search(text)
        if match is None:
            continue
        file_wide = match.group("kind") == "disable-file"
        has_reason = match.group("reason") is not None
        for code in match.group("codes").replace(" ", "").split(","):
            sup.declared.append((line, code, file_wide, has_reason))
            if file_wide:
                sup.file_wide.add(code)
            else:
                sup.by_line.setdefault(line, set()).add(code)
    return sup


def apply_suppressions(
    raw: List[Finding], suppressions: Suppressions,
) -> Tuple[List[Finding], Set[Tuple[int, str]], int]:
    """Split findings into (kept, used-suppression keys, hidden count).

    A file-wide use is recorded under line ``-1``, matching how
    :func:`check_hygiene` looks suppressions up.
    """
    kept: List[Finding] = []
    used: Set[Tuple[int, str]] = set()
    hidden = 0
    for finding in raw:
        if finding.code in suppressions.file_wide:
            used.add((-1, finding.code))
            hidden += 1
        elif finding.code in suppressions.by_line.get(finding.line,
                                                      set()):
            used.add((finding.line, finding.code))
            hidden += 1
        else:
            kept.append(finding)
    return kept, used, hidden


def check_hygiene(
    spec: "ToolSpec",
    relpath: str,
    suppressions: Suppressions,
    used: Set[Tuple[int, str]],
) -> List[Finding]:
    """Hygiene: suppressions must name real, needed, justified codes."""
    known = set(spec.registry.codes()) | set(spec.extra_known_codes)
    findings = []
    for line, code, file_wide, has_reason in suppressions.declared:
        if code not in known:
            findings.append(Finding(
                path=relpath, line=line, col=1, code=spec.hygiene_code,
                message=f"suppression names unknown rule code {code}"))
            continue
        if (-1 if file_wide else line, code) not in used:
            where = "file-wide" if file_wide else "on this line"
            findings.append(Finding(
                path=relpath, line=line, col=1, code=spec.hygiene_code,
                message=f"unused suppression: {code} reports nothing "
                        f"{where}"))
        elif not has_reason:
            findings.append(Finding(
                path=relpath, line=line, col=1, code=spec.hygiene_code,
                message=f"suppression of {code} has no reason; write "
                        f"'-- <why this is legitimate>' after the "
                        f"code"))
    return findings
