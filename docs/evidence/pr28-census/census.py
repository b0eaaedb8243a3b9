"""Which ``src/`` functions do the gates reach?  A function-call census.

    python census.py pytest OUT.json [PYTEST ARGS...]
    python census.py module OUT.json MODULE [ARGS...]
    python census.py report SRC OUT.json... [--lines]

``pytest`` runs ``pytest.main(ARGS)`` in this process and ``module``
runs ``python -m MODULE ARGS`` the same way, both under a
``sys.settrace`` hook that records the code object of every Python
frame that starts or resumes.  The hook returns None, so there is no
per-line tracing and a run is roughly two to three times slower.  The
set of ``(file, first line, name)`` of every frame under a ``src``
directory is written to OUT.json.

Under pytest the hook is put back after every test
(``pytest_runtest_teardown``), and the number of tests that left some
other trace function installed is recorded: a census that lost its
hook part-way would report everything after that test as unreached.
``sys.setprofile`` users such as ``repro.analysis.hotalloc`` and
cProfile do not displace a ``settrace`` hook.  Processes a test spawns
are not traced.

``report`` lists every function or method defined under SRC (from the
AST, nested functions included) that no OUT.json reached, with its
length in lines.  A function whose code object starts at its first
decorator is matched on that line.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import sys
import threading
from types import CodeType
from typing import Dict, Iterable, List, Set, Tuple

Site = Tuple[str, int, str]

_seen: Set[CodeType] = set()
_displaced = 0


def _trace(frame, event, arg):
    _seen.add(frame.f_code)


def _install() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def _dump(out: str) -> None:
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]
    sites = sorted(site for site in {
        (os.path.abspath(code.co_filename), code.co_firstlineno,
         code.co_name) for code in _seen}
        if f"{os.sep}src{os.sep}" in site[0])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"displaced_after_tests": _displaced, "reached": sites},
                  handle, indent=0)
        handle.write("\n")


class _Reinstall:
    """pytest plugin: put the hook back after every test."""

    def pytest_runtest_teardown(self, item, nextitem):
        global _displaced
        if sys.gettrace() is not _trace:
            _displaced += 1
        _install()


def cmd_pytest(out: str, args: List[str]) -> int:
    import pytest

    _install()
    try:
        status = pytest.main(args, plugins=[_Reinstall()])
    finally:
        _dump(out)
    return int(status)


def cmd_module(out: str, module: str, args: List[str]) -> int:
    sys.argv = [module, *args]
    _install()
    status = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        _dump(out)
    return status


def _functions(path: str) -> Iterable[Tuple[int, int, str, str]]:
    """(first line, length, name, qualified name) of every def."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qual = f"{prefix}{child.name}"
                length = (child.end_lineno or child.lineno) - first + 1
                yield first, length, child.name, qual
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def cmd_report(src: str, outs: List[str], lines: bool) -> int:
    reached: Set[Site] = set()
    for out in outs:
        with open(out, encoding="utf-8") as handle:
            data = json.load(handle)
        reached.update(tuple(site) for site in data["reached"])
        print(f"# {out}: {len(data['reached'])} functions reached, "
              f"{data['displaced_after_tests']} tests displaced the hook")
    src = os.path.abspath(src)
    unreached: List[Tuple[str, int, int, str]] = []
    total = 0
    for folder, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            for first, length, fname, qual in _functions(path):
                total += 1
                if (path, first, fname) not in reached:
                    unreached.append((os.path.relpath(path, src), first,
                                      length, qual))
    by_file: Dict[str, int] = {}
    for rel, first, length, qual in unreached:
        by_file[rel] = by_file.get(rel, 0) + length
        print(f"{rel}:{first}  {qual}  ({length} lines)")
    print(f"# {len(unreached)} of {total} functions unreached, "
          f"{sum(by_file.values())} lines")
    if lines:
        for rel, count in sorted(by_file.items(), key=lambda kv: -kv[1]):
            print(f"#   {count:>4} lines  {rel}")
    return 0


def main(argv: List[str]) -> int:
    if len(argv) >= 2 and argv[0] == "pytest":
        return cmd_pytest(argv[1], argv[2:])
    if len(argv) >= 3 and argv[0] == "module":
        return cmd_module(argv[1], argv[2], argv[3:])
    if len(argv) >= 3 and argv[0] == "report":
        outs = [arg for arg in argv[2:] if arg != "--lines"]
        return cmd_report(argv[1], outs, "--lines" in argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
