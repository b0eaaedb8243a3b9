"""One lint pass over the Trail reproduction: four rules, one parse.

    python -m tools.lint [paths] [--root DIR]

``make analyzers`` runs it with no paths: every ``.py`` file under
``src`` and ``tools`` is parsed with :mod:`ast` once and each rule of
:data:`RULES` checks the files its ``scope`` matches.  A named
directory is walked the same way; a named *file* gets every rule,
scopes ignored, which is how a fixture is analyzed.  A rule's
``exempt`` patterns hold either way, and a directory walk skips the
deliberately bad fixtures under ``tests/*/fixtures/``.

Each finding prints as ``path:line:col: CODE message``; the last line
is the one verdict.  ``TRL000`` reports an unreadable or unparsable
file.  Exit codes: 0 clean, 1 findings, 2 usage or I/O error.  A rule
that raises fails the run: there is no catch-all that could turn a
crash into "clean".

| code   | rejects                                                     |
|--------|-------------------------------------------------------------|
| TRL004 | a broad ``except`` swallowing the ``repro.errors`` taxonomy |
| TRL008 | a decoded record consumed without its format/CRC check      |
| TIS001 | a mutable container or counter bound at module scope        |
| TIS004 | a read of the wall clock, a shared RNG or the environment   |
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple)

#: What a check yields: the offending node and the finding's message.
Hits = Iterator[Tuple[ast.AST, str]]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    """Last components of the names an ``except`` clause catches."""
    assert handler.type is not None
    exprs = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return [dotted_name(expr).rpartition(".")[2] for expr in exprs]


# -- TRL004: error-taxonomy discipline ---------------------------------

_BROAD = ("Exception", "BaseException")


def broad_except(tree: ast.Module) -> Hits:
    """A broad ``except`` that does not re-raise unchanged.

    ``repro.errors`` tells media faults, power loss, format corruption
    and driver shutdown apart so degraded-mode handling can react to
    each.  ``except Exception`` (or a bare ``except``) erases that; it
    is allowed only when the handler re-raises with a bare ``raise``.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            broad = "bare except"
        else:
            caught = [name for name in _handler_names(node)
                      if name in _BROAD]
            if not caught:
                continue
            broad = f"except {caught[0]}"
        if any(isinstance(inner, ast.Raise) and inner.exc is None
               for inner in ast.walk(node)):
            continue
        yield node, (f"{broad} swallows the repro.errors taxonomy; "
                     f"catch the specific exceptions this code can "
                     f"translate, or re-raise with a bare `raise`")


# -- TRL008: log-format discipline (paper §3.2) ------------------------

_DECODE_FNS = ("decode_record_header", "decode_disk_header",
               "decode_geometry")
_FORMAT_ERRORS = ("LogFormatError", "TrailError")


def _catches_format_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # a bare except catches it (TRL004's problem)
    return any(name in _FORMAT_ERRORS for name in _handler_names(handler))


def _unprotected_decodes(node: ast.AST, protected: bool) -> Hits:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func).rpartition(".")[2]
        if name in _DECODE_FNS and not protected:
            yield node, (f"{name}() raises LogFormatError on CRC/format "
                         f"mismatch; call it inside try/except "
                         f"LogFormatError")
    if isinstance(node, ast.Try):
        body_protected = protected or any(
            _catches_format_error(handler) for handler in node.handlers)
        for child in node.body:
            yield from _unprotected_decodes(child, body_protected)
        for other in node.handlers + node.orelse + node.finalbody:
            yield from _unprotected_decodes(other, protected)
        return
    for child in ast.iter_child_nodes(node):
        yield from _unprotected_decodes(child, protected)


def unverified_decode(tree: ast.Module) -> Hits:
    """A decoded record consumed without its format or CRC check.

    The self-describing log works only if every reader treats a
    CRC/format mismatch as "not a record": each ``decode_*()`` sits
    under ``try/except LogFormatError``, and a function that calls
    ``restore_payload()`` checks ``payload_crc32``/``payload_crc``.
    """
    yield from _unprotected_decodes(tree, False)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        restores: List[ast.Call] = []
        verified = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func).rpartition(".")[2]
                if name == "restore_payload":
                    restores.append(node)
                elif name == "payload_crc32":
                    verified = True
            if isinstance(node, ast.Attribute) \
                    and node.attr == "payload_crc":
                verified = True
        if not verified:
            for call in restores:
                yield call, ("restore_payload() without a payload_crc32 "
                             "check in the same function: corrupted "
                             "payloads would be replayed silently")


# -- TIS001 / TIS004: cross-instance isolation -------------------------

#: Constructor calls that build a mutable container or counter; any
#: other call (``frozenset``, ``MappingProxyType`` ...) is not one.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "deque", "defaultdict", "OrderedDict", "Counter",
    "collections.deque", "collections.defaultdict",
    "collections.OrderedDict", "collections.Counter",
    "itertools.count",
})

#: Modules whose ``from`` imports resolve to dotted names, so
#: ``from time import perf_counter`` then ``perf_counter()`` reads as
#: ``time.perf_counter()``.
_RESOLVED_MODULES = ("itertools", "random", "time")


def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """Local name -> ``module.name`` for ``from`` imports of
    :data:`_RESOLVED_MODULES`."""
    imported: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module in _RESOLVED_MODULES:
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imported


def _call_name(node: ast.Call, imported: Dict[str, str]) -> str:
    name = dotted_name(node.func)
    return imported.get(name, name)


def _mutable_kind(node: ast.expr,
                  imported: Dict[str, str]) -> Optional[str]:
    """The container kind of an expression, or None when immutable."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = _call_name(node, imported)
        if name in _MUTABLE_CALLS:
            return name.rsplit(".", maxsplit=1)[-1]
        return None
    if isinstance(node, ast.BinOp):
        return (_mutable_kind(node.left, imported)
                or _mutable_kind(node.right, imported))
    if isinstance(node, ast.IfExp):
        return (_mutable_kind(node.body, imported)
                or _mutable_kind(node.orelse, imported))
    return None


def _module_bindings(body: List[ast.stmt]) -> Iterator[
        Tuple[ast.stmt, str, ast.expr]]:
    """(statement, name, value) of each simple module-scope binding,
    including those under an ``if`` or ``try`` at module scope
    (``TYPE_CHECKING`` guards, import fallbacks)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield stmt, target.id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            yield stmt, stmt.target.id, stmt.value
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from _module_bindings(
                [child for child in ast.iter_child_nodes(stmt)
                 if isinstance(child, ast.stmt)])


def module_mutables(tree: ast.Module) -> Hits:
    """A mutable container or counter bound at module scope.

    A module is a process-wide singleton: a list/dict/set/bytearray
    or an ``itertools.count`` id source bound there is shared by every
    Trail instance in the process.
    """
    imported = _imported_names(tree)
    for stmt, name, value in _module_bindings(tree.body):
        if name.startswith("__") and name.endswith("__"):
            continue
        kind = _mutable_kind(value, imported)
        if kind is not None:
            yield stmt, (f"module-level '{name}' binds a mutable {kind}: "
                         f"shared by every Trail instance in the "
                         f"process; freeze it or lift it into an "
                         f"instance")


#: Module functions of :mod:`random` whose state is process-global.
_RANDOM_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "randbytes",
    "getrandbits", "betavariate", "expovariate",
})

#: Wall-clock reads in :mod:`time`.
_TIME_FNS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns", "localtime", "gmtime",
})

_DATETIME_FNS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})


def _ambient_read(node: ast.AST, imported: Dict[str, str]) -> str:
    """What ambient singleton ``node`` reads, or ''."""
    if isinstance(node, ast.Attribute):
        return ("environment read 'os.environ'"
                if dotted_name(node) == "os.environ" else "")
    if not isinstance(node, ast.Call):
        return ""
    name = _call_name(node, imported)
    module, _, function = name.partition(".")
    if name == "random.Random":
        return ("unseeded RNG 'Random()'"
                if not node.args and not node.keywords else "")
    if module == "random" and function in _RANDOM_FNS:
        return f"shared RNG '{name}()'"
    if (module == "time" and function in _TIME_FNS) \
            or name in _DATETIME_FNS:
        return f"wall clock '{name}()'"
    if name == "os.getenv":
        return "environment read 'os.getenv()'"
    return ""


def ambient_reads(tree: ast.Module) -> Hits:
    """A read of process-global ambient state.

    ``random.*`` module functions share one hidden ``Random``,
    ``time.*`` reads the host clock and ``os.environ`` is process-wide
    configuration: each makes two same-seed instances diverge.
    """
    imported = _imported_names(tree)
    for node in ast.walk(tree):
        what = _ambient_read(node, imported)
        if what:
            yield node, (f"ambient-singleton read: {what}; use a seeded "
                         f"random.Random / simulated time, or move the "
                         f"read behind the sanitizer or perf perimeter")


# -- the rule table ----------------------------------------------------

_SRC = ("src/repro/*",)
_LIB = ("src/repro/*", "tools/*")

#: ``(code, check, scope, exempt)``: fnmatch patterns over posix paths
#: relative to the root.  ``scope`` is ignored for a named file;
#: ``exempt`` always holds, and it is the only place a sanctioned
#: exception lives.
RULES: Tuple[Tuple[str, Callable[[ast.Module], Hits],
                   Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("TRL004", broad_except, _SRC, ()),
    ("TRL008", unverified_decode, _SRC, ("src/repro/core/format.py",)),
    ("TIS001", module_mutables, _LIB, ()),
    ("TIS004", ambient_reads, _LIB,
     ("src/repro/sim/sanitizer.py", "src/repro/analysis/perf.py")),
)

#: What ``make analyzers`` checks.
DEFAULT_PATHS = ("src", "tools")
#: Directory basenames a walk never enters.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".pytest_cache", ".hypothesis",
})
#: What a walk never yields: the deliberately bad fixtures.
FIXTURES = "tests/*/fixtures/*"


def walk(root: str, paths: Sequence[str]) -> List[Tuple[str, str, bool]]:
    """Resolve inputs to ``(abspath, relpath, named)`` Python files."""
    chosen: List[Tuple[str, str, bool]] = []
    for raw in paths:
        path = os.path.normpath(os.path.join(root, raw))
        if os.path.isfile(path):
            chosen.append((path, os.path.relpath(path, root)
                           .replace(os.sep, "/"), True))
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for filename in sorted(filenames):
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                if filename.endswith(".py") and not fnmatch(rel, FIXTURES):
                    chosen.append((full, rel, False))
    return chosen


def check_file(path: str, relpath: str, named: bool) -> List[Finding]:
    """Every rule in remit over one file, or its TRL000."""
    try:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=relpath)
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(relpath, 1, 1, "TRL000", f"cannot read file: {exc}")]
    except SyntaxError as exc:
        return [Finding(relpath, exc.lineno or 1, exc.offset or 1,
                        "TRL000", f"syntax error: {exc.msg}")]
    findings: Set[Finding] = set()
    for code, check, scope, exempt in RULES:
        if any(fnmatch(relpath, pattern) for pattern in exempt):
            continue
        if named or any(fnmatch(relpath, pattern) for pattern in scope):
            findings.update(
                Finding(relpath, getattr(node, "lineno", 1),
                        getattr(node, "col_offset", 0) + 1, code, message)
                for node, message in check(tree))
    return sorted(findings)


def lint(root: Optional[str] = None, paths: Sequence[str] = DEFAULT_PATHS,
         ) -> Tuple[List[Finding], int]:
    """Every finding under ``paths``, sorted, and the files checked."""
    files = walk(os.path.abspath(root or os.getcwd()), paths)
    findings = [finding for found in files for finding in check_file(*found)]
    return sorted(findings), len(files)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint", description="the repo's four lint rules, one parse")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check instead of "
                             "src and tools; a named file gets every rule")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths (default: cwd)")
    args = parser.parse_args(argv)
    try:
        findings, checked = lint(args.root, args.paths or DEFAULT_PATHS)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    verdict = f"{len(findings)} finding(s)" if findings else "clean"
    print(f"lint: {checked} files, {len(RULES)} rules, {verdict}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
