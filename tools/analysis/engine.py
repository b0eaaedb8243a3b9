"""File discovery, parsing and the per-file check every analyzer shares.

One :class:`ToolSpec` describes everything tool-specific — the name
and code prefix (which fix the suppression grammar), the rule
registry, the path scope a default run gives it, the per-file context
object rules receive, and an optional whole-run
:meth:`ToolSpec.prepare` hook for analyses that need cross-file state
(trailunits builds its signature table there).  Everything else —
walking inputs, parsing each file and tokenizing its comments once,
matching rule scopes, applying suppressions and policing them — lives
here and behaves identically for every tool.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import List, Optional, Sequence, Tuple

from tools.analysis.findings import Finding
from tools.analysis.registry import Registry
from tools.analysis.suppressions import (
    apply_suppressions, check_hygiene, parse_suppressions,
    suppression_pattern)

#: ``(line, text)`` of every comment token of one file, in source order.
Comments = List[Tuple[int, str]]

#: Directory basenames skipped during directory walks.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".pytest_cache", ".hypothesis",
})

#: Paths (posix relpaths, fnmatch) a directory walk never yields: the
#: analyzers' deliberately bad fixtures.  A fixture is analyzed by
#: naming it on the command line.
FIXTURES: Tuple[str, ...] = ("tests/*/fixtures/*",)


class FileContext:
    """Everything a rule may look at for one file.

    Tools with richer per-file models (trailsan's function scans,
    trailunits' inference caches) subclass this; the engine constructs
    contexts through :meth:`ToolSpec.make_context`.
    """

    def __init__(self, path: str, comments: Comments,
                 tree: ast.Module) -> None:
        self.path = path
        self.comments = comments
        self.tree = tree

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=code, message=message)


@dataclass
class ParsedFile:
    """One resolved input file, read and parsed once for every tool."""

    path: str          # absolute
    relpath: str       # posix relpath from the analysis root
    explicit: bool     # named directly on the command line
    tree: Optional[ast.Module] = None
    #: Read once, with the tree; every suppression and annotation
    #: grammar is parsed from these, never from the raw source.
    comments: Comments = field(default_factory=list)
    #: (line, col, message) when unreadable or syntactically invalid;
    #: reported under each tool's own error code.
    error: Optional[Tuple[int, int, str]] = None


class ToolSpec:
    """Static description of one analyzer built on the shared runtime."""

    #: Tool name: the ``# <name>:`` suppression prefix and the key of
    #: its findings in the report.
    name: str = ""
    #: Three-letter rule-code prefix (``TRL``, ``TSN``, ``TUN``, ``TIS``).
    prefix: str = ""
    #: Code reported for unreadable or syntactically invalid files.
    error_code: str = ""
    #: Code reported for suppression-hygiene violations.
    hygiene_code: str = ""
    #: Codes legal in suppression comments beyond the registry.
    extra_known_codes: Tuple[str, ...] = ()
    #: Top-level paths a default run (``make analyzers``) gives the tool.
    paths: Tuple[str, ...] = ("src", "tools")
    #: The tool's rule registry.  Populated by importing rule modules;
    #: :meth:`load_rules` must make that import happen.
    registry: Registry

    def load_rules(self) -> None:
        """Import rule modules so the registry is populated."""

    def prepare(self, files: Sequence[ParsedFile]) -> object:
        """Whole-run hook before per-file checks; returns shared state."""
        return None

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> FileContext:
        assert parsed.tree is not None
        return FileContext(parsed.relpath, parsed.comments, parsed.tree)


def _rel(root: str, path: str) -> str:
    rel = os.path.relpath(path, root)
    return rel.replace(os.sep, "/")


def walk(root: str, paths: Sequence[str],
         exclude: Tuple[str, ...]) -> List[Tuple[str, str, bool]]:
    """Resolve inputs to (abspath, relpath, explicit) python files."""
    chosen: List[Tuple[str, str, bool]] = []
    for raw in paths:
        path = raw if os.path.isabs(raw) else os.path.join(root, raw)
        path = os.path.normpath(path)
        if os.path.isfile(path):
            chosen.append((path, _rel(root, path), True))
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIRS)
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = _rel(root, full)
                if any(fnmatch(rel, pattern) for pattern in exclude):
                    continue
                chosen.append((full, rel, False))
    return chosen


def read_comments(source: str) -> Comments:
    """Every comment token of ``source``: the one tokenize pass per file.

    A ``#`` inside a string literal is not a comment, so text that
    merely looks like a suppression or an annotation is never read as
    one.
    """
    try:
        return [(tok.start[0], tok.string) for tok in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def parse(path: str, relpath: str, explicit: bool) -> ParsedFile:
    """Read and parse one file, keeping a failure for every tool."""
    parsed = ParsedFile(path=path, relpath=relpath, explicit=explicit)
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        parsed.tree = ast.parse(source, filename=relpath)
        parsed.comments = read_comments(source)
    except (OSError, UnicodeDecodeError) as exc:
        parsed.error = (1, 1, f"cannot read file: {exc}")
    except SyntaxError as exc:
        parsed.error = (exc.lineno or 1, (exc.offset or 0) + 1,
                        f"syntax error: {exc.msg}")
    return parsed


def check_file(spec: ToolSpec, parsed: ParsedFile,
               shared: object) -> Tuple[List[Finding], int]:
    """Run every rule of ``spec`` over one parsed file.

    Returns post-suppression findings (sorted) plus the number of
    findings a suppression hid.
    """
    if parsed.error is not None:
        line, col, message = parsed.error
        return [Finding(path=parsed.relpath, line=line, col=col,
                        code=spec.error_code, message=message)], 0
    ctx = spec.make_context(parsed, shared)
    raw: List[Finding] = []
    for rule in spec.registry.all_rules():
        if not rule.applies_to(parsed.relpath,
                               explicit=parsed.explicit):
            continue
        raw.extend(rule.check(ctx))

    pattern = suppression_pattern(spec.name, spec.prefix)
    suppressions = parse_suppressions(parsed.comments, pattern)
    kept, used, hidden = apply_suppressions(raw, suppressions)
    kept.extend(check_hygiene(spec, parsed.relpath, suppressions, used))
    return sorted(set(kept)), hidden
