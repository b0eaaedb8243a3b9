"""Replay the analyzers over historical ``src``, ``tests`` and ``tools`` trees.

    python wide_replay.py --tools CHECKOUT --out FILE SHA...

PR 25's ``replay.py`` read ``src`` only, but trailint also scopes
``tests/`` and ``tools/``.  For each commit this exports whichever of
``src``, ``tests`` and ``tools`` it has with ``git archive``, runs
``python -m tools.analysis --root <tree> --json <dirs>`` with CHECKOUT
as the working directory (so the tree's own ``tools/`` is analysed, not
imported), and keeps each tool's findings inside that tool's default
scope (trailint: src, tests, tools; the others: src, tools).  Findings
inside a ``tests/<pass>/fixtures/`` directory are deliberate fixture
code of some pass, so they are counted apart.

Prints one line per tree and the per-code totals over all trees.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from fnmatch import fnmatch
from typing import Dict, List

SCOPES = {"trailint": ("src", "tests", "tools")}
DEFAULT_SCOPE = ("src", "tools")
FIXTURES = "tests/*/fixtures/*"


def _git(repo: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True).stdout


def _analyze(tools: str, root: str, dirs: List[str]) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "--root", root, "--json",
         *dirs], cwd=tools, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"analyzers failed on {root}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    out: Dict[str, object] = {}
    for name, row in report["tools"].items():
        scope = SCOPES.get(name, DEFAULT_SCOPE)
        kept, fixture = [], []
        for f in row["findings"]:
            if f["path"].split("/")[0] not in scope:
                continue
            (fixture if fnmatch(f["path"], FIXTURES) else kept).append(
                [f["path"], f["line"], f["code"]])
        out[name] = {"findings": sorted(kept),
                     "fixture_findings": sorted(fixture),
                     "suppressed": row["suppressed"]}
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tools", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--repo", default=".")
    parser.add_argument("shas", nargs="+")
    args = parser.parse_args(argv)
    tools = os.path.abspath(args.tools)
    trees = []
    totals: Dict[str, int] = collections.Counter()
    for sha in args.shas:
        subject = _git(args.repo, "log", "-1", "--format=%h %s",
                       sha).decode().strip()
        present = _git(args.repo, "ls-tree", "--name-only", sha).decode()
        dirs = [d for d in ("src", "tests", "tools")
                if d in present.split()]
        with tempfile.TemporaryDirectory() as root:
            archive = os.path.join(root, "tree.tar")
            with open(archive, "wb") as handle:
                handle.write(_git(args.repo, "archive", sha, *dirs))
            with tarfile.open(archive) as tar:
                tar.extractall(root)
            os.remove(archive)
            result = _analyze(tools, root, dirs)
        trees.append({"tree": subject, "dirs": dirs, "tools": result})
        codes = collections.Counter(
            f[2] for row in result.values() for f in row["findings"])
        totals.update(codes)
        print(f"{subject[:50]:<50} {','.join(dirs):<16} "
              + " ".join(f"{c}={n}" for c, n in sorted(codes.items())))
    print("per-code findings over all trees (fixtures excluded): "
          + (" ".join(f"{c}={n}" for c, n in sorted(totals.items()))
             or "none"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"trees": trees}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
