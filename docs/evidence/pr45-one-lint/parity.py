"""Old analyzer runtime against ``tools/lint.py``: same findings?

    python docs/evidence/pr45-one-lint/parity.py [--old-ref c769d2e]

Exports OLD-REF (the last commit with ``tools/analysis``) with
``git archive`` into a temporary directory and runs, on each target,
its ``python -m tools.analysis --json`` and this checkout's
``python -m tools.lint``, then prints one markdown row per target with
both ``(path, line, col, code, message)`` sets compared.  The targets:

* every fixture under ``tests/lint/fixtures`` of this checkout, named
  on the command line (every rule, as both tools treat a named file);
* the default sweep of OLD-REF's tree and of this checkout's tree;
* the default sweep of OLD-REF with each corpus patch of
  ``docs/evidence/pr29-mutants`` in PATCHES applied.

Exits 1 if any target differs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from typing import List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", "..", ".."))
CORPUS = os.path.join(REPO, "docs", "evidence", "pr29-mutants")
PATCHES = ("01", "04", "06", "08", "13", "14", "19")
_LINE = re.compile(r"^(.+?):(\d+):(\d+): ([A-Z]{3}\d{3}) (.*)$",
                   re.MULTILINE)

Key = Tuple[str, int, int, str, str]


def export(ref: str, into: str) -> None:
    archive = os.path.join(into, "tree.tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", REPO, "archive", ref], check=True,
                       stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    os.remove(archive)


def old_findings(old: str, root: str, paths: List[str]) -> Set[Key]:
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "--json", "--root", root,
         *paths], cwd=old, capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    return {(f["path"], f["line"], f["col"], f["code"], f["message"])
            for run in json.loads(proc.stdout)["tools"].values()
            for f in run["findings"]}


def new_findings(root: str, paths: List[str]) -> Set[Key]:
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--root", root, *paths],
        cwd=REPO, capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    return {(path, int(line), int(col), code, message)
            for path, line, col, code, message
            in _LINE.findall(proc.stdout)}


def row(target: str, old: Set[Key], new: Set[Key]) -> Tuple[str, bool]:
    codes = sorted({key[3] for key in old | new})
    same = old == new
    return (f"| {target} | {len(old)} | {len(new)} | "
            f"{' '.join(codes) or '·'} | {'same' if same else 'DIFFERENT'} |",
            same)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old-ref", default="c769d2e")
    args = parser.parse_args(argv)
    rows: List[Tuple[str, bool]] = []
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        old = os.path.join(scratch, "old")
        os.mkdir(old)
        export(args.old_ref, old)
        fixtures = sorted(glob.glob(
            os.path.join(REPO, "tests", "lint", "fixtures", "*", "*.py")))
        for fixture in fixtures:
            rel = os.path.relpath(fixture, REPO)
            rows.append(row(f"`{rel}`", old_findings(old, REPO, [rel]),
                            new_findings(REPO, [rel])))
        for label, tree in ((f"sweep of {args.old_ref}", old),
                            ("sweep of this checkout", REPO)):
            rows.append(row(label, old_findings(old, tree, []),
                            new_findings(tree, [])))
        for number in PATCHES:
            (patch,) = glob.glob(os.path.join(CORPUS, f"{number}-*.patch"))
            tree = os.path.join(scratch, f"patched-{number}")
            os.mkdir(tree)
            export(args.old_ref, tree)
            subprocess.run(["git", "apply", patch], cwd=tree, check=True)
            rows.append(row(
                f"sweep of {args.old_ref} + `{os.path.basename(patch)}`",
                old_findings(old, tree, []), new_findings(tree, [])))
    print("| target | old findings | new findings | codes | "
          "(path, line, col, code, message) |")
    print("|---|---|---|---|---|")
    for text, _ in rows:
        print(text)
    return 0 if all(same for _, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
