"""Replay the repo-native analyzers over historical ``src`` trees.

    python replay.py run --tools CHECKOUT --out FILE [--worktree DIR] SHA...
    python replay.py compare BEFORE.json AFTER.json
    python replay.py tokens --tools CHECKOUT [--runs 5]

``run`` exports ``src`` of each commit with ``git archive`` into a
temporary directory and runs ``python -m tools.analysis --json src``
there, with the analyzers of CHECKOUT first on ``PYTHONPATH``.  It
records, per tree and per tool, the sorted ``(path, line, code)``
findings and the suppressed count.  ``--worktree DIR`` adds a copy of
``DIR/src`` as one more tree, named ``worktree`` (a copy, so that
DIR's own ``tools`` never shadows CHECKOUT's).

``compare`` checks that two ``run`` outputs agree, tree by tree, on
every tool both of them ran, and prints the per-tree finding counts
with a column for each tool only one side ran.  It exits 1 on any
disagreement.

``tokens`` counts ``tokenize.generate_tokens`` calls in one in-process
``run_all`` over CHECKOUT with the default scopes (what
``make analyzers`` checks), then times ``python -m tools.analysis``
there end to end ``--runs`` times in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, List


def _git(repo: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True).stdout


def _analyze(tools: str, root: str) -> Dict[str, object]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tools))
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "--root", root,
         "--json", "src"],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"analyzers failed on {root}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    return {
        name: {
            "findings": sorted([f["path"], f["line"], f["code"]]
                               for f in row["findings"]),
            "suppressed": row["suppressed"],
        }
        for name, row in report["tools"].items()
    }


def cmd_run(args: argparse.Namespace) -> int:
    trees: List[Dict[str, object]] = []
    for sha in args.shas:
        subject = _git(args.repo, "log", "-1", "--format=%h %s",
                       sha).decode().strip()
        with tempfile.TemporaryDirectory() as root:
            archive = os.path.join(root, "src.tar")
            with open(archive, "wb") as handle:
                handle.write(_git(args.repo, "archive", sha, "src"))
            with tarfile.open(archive) as tar:
                tar.extractall(root)
            os.remove(archive)
            tools = _analyze(args.tools, root)
        trees.append({"tree": subject, "tools": tools})
        print(f"{subject[:60]:<60} "
              + " ".join(f"{name}={len(row['findings'])}"
                         for name, row in sorted(tools.items())),
              file=sys.stderr)
    if args.worktree:
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(os.path.join(args.worktree, "src"),
                            os.path.join(root, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees.append({"tree": "worktree",
                          "tools": _analyze(args.tools, root)})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"trees": trees}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.before, encoding="utf-8") as handle:
        before = json.load(handle)["trees"]
    with open(args.after, encoding="utf-8") as handle:
        after = json.load(handle)["trees"]
    if [t["tree"] for t in before] != [t["tree"] for t in after]:
        print("the two replays cover different trees")
        return 1
    names = sorted(set(before[0]["tools"]) | set(after[0]["tools"]))
    shared = [n for n in names
              if n in before[0]["tools"] and n in after[0]["tools"]]
    print(f"{'tree':<52} " + " ".join(f"{n:>10}" for n in names)
          + "  verdict")
    bad = 0
    for old, new in zip(before, after):
        cells = []
        for name in names:
            row = old["tools"].get(name) or new["tools"][name]
            cells.append(f"{len(row['findings'])}/{row['suppressed']}")
        same = all(old["tools"][n] == new["tools"][n] for n in shared)
        bad += not same
        print(f"{old['tree'][:52]:<52} "
              + " ".join(f"{c:>10}" for c in cells)
              + ("  same" if same else "  DIFFER"))
    only = [n for n in names if n not in shared]
    print(f"cells are findings/suppressed; compared {', '.join(shared)}"
          + (f"; only one side ran {', '.join(only)}" if only else ""))
    print("verdict: " + ("identical" if not bad
                         else f"{bad} tree(s) differ"))
    return 1 if bad else 0


def cmd_tokens(args: argparse.Namespace) -> int:
    tools = os.path.abspath(args.tools)
    sys.path.insert(0, tools)
    import tokenize

    from tools.analysis.driver import run_all

    calls = 0
    real = tokenize.generate_tokens

    def counting(readline):
        nonlocal calls
        calls += 1
        return real(readline)

    tokenize.generate_tokens = counting
    report = run_all(root=tools)
    tokenize.generate_tokens = real
    print(f"files parsed: {report.files_parsed}")
    print(f"generate_tokens calls: {calls}")
    walls = []
    for _ in range(args.runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tools.analysis"],
                       cwd=tools, check=True, capture_output=True)
        walls.append(time.perf_counter() - start)
    print("make analyzers wall-clock (s): "
          + " ".join(f"{w:.2f}" for w in walls)
          + f"  median {statistics.median(walls):.2f}")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--tools", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--repo", default=".")
    run.add_argument("--worktree")
    run.add_argument("shas", nargs="*")
    compare = sub.add_parser("compare")
    compare.add_argument("before")
    compare.add_argument("after")
    tokens = sub.add_parser("tokens")
    tokens.add_argument("--tools", required=True)
    tokens.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare,
            "tokens": cmd_tokens}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
