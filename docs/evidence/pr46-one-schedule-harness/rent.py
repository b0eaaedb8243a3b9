"""Which corpus rows each dispatch-order harness catches on its own.

    python rent.py [--ref REF] [PATCH...] > rent.md

Exports REF (default 4b934df, the last tree with the seeded tie
perturbation and the ``two-instance`` scenario) with ``git archive``
into a temporary directory.  For each ``*.patch`` of the bug corpus
(``docs/evidence/pr29-mutants``, or the ones named) it applies the
patch with ``git apply``, runs every harness below alone in that copy,
and reverts the patch with ``git apply -R``.  A harness *catches* a
row when its command exits non-zero.  The unpatched copy runs first;
every harness must pass there.

The pytest harnesses run under ``tests/conftest.py``, so with the
session ``TRAILSAN=1`` sanitizer on, exactly as in tier-1; each
``repro mc`` scenario installs a sanitizer of its own.  Prints one
markdown table, harness by row, plus the first failure line of every
catch.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "pr29-mutants")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
          "no:cacheprovider"]
MC = [sys.executable, "-m", "repro", "mc"]

#: (column, command)
HARNESSES: List[Tuple[str, List[str]]] = [
    ("test_perturbation", PYTEST + ["tests/sim/test_perturbation.py"]),
    ("mc two-instance", MC + ["two-instance"]),
    ("mc crash-recovery", MC + ["crash-recovery"]),
    ("mc writeback-faults", MC + ["writeback-faults"]),
    ("tests/mc", PYTEST + ["tests/mc"]),
    ("test_crash_durability",
     PYTEST + ["tests/integration/test_crash_durability.py"]),
    ("test_model_based_fuzz",
     PYTEST + ["tests/integration/test_model_based_fuzz.py"]),
    ("test_raid_fuzz", PYTEST + ["tests/integration/test_raid_fuzz.py"]),
]

_WHY = re.compile(r"^(?:E\s+|mc: )(.+)$", re.MULTILINE)


def _export(repo: str, ref: str, root: str) -> None:
    archive = os.path.join(root, "tree.tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", repo, "archive", ref], check=True,
                       stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(root)
    os.remove(archive)


def _run(root: str) -> Dict[str, Optional[str]]:
    """Harness -> None when it passes, else its first failure line."""
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("TRAILSAN", None)
    verdicts: Dict[str, Optional[str]] = {}
    for name, command in HARNESSES:
        proc = subprocess.run(command, cwd=root, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=900)
        if proc.returncode == 0:
            verdicts[name] = None
        else:
            why = _WHY.search(proc.stdout)
            verdicts[name] = (why.group(1).strip()[:120] if why
                              else f"exit {proc.returncode}")
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", default="4b934df")
    parser.add_argument("patches", nargs="*")
    args = parser.parse_args()
    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          cwd=HERE, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()
    patches = ([os.path.abspath(p) for p in args.patches]
               or sorted(glob.glob(os.path.join(CORPUS, "*.patch"))))
    rows: List[Tuple[str, Dict[str, Optional[str]]]] = []
    with tempfile.TemporaryDirectory(prefix="rent-") as root:
        _export(repo, args.ref, root)
        rows.append(("(none)", _run(root)))
        for patch in patches:
            name = os.path.basename(patch)[:-len(".patch")]
            applied = subprocess.run(["git", "apply", patch], cwd=root)
            if applied.returncode:
                rows.append((name, {}))
                continue
            rows.append((name, _run(root)))
            subprocess.run(["git", "apply", "-R", patch], cwd=root,
                           check=True)
            print(f"rent: {name} done", file=sys.stderr)
    columns = [name for name, _ in HARNESSES]
    print(f"Harness × corpus row on `{args.ref}`: `x` = the harness alone "
          f"fails with the patch applied, `·` = it passes.\n")
    print("| row | " + " | ".join(f"`{c}`" for c in columns) + " |")
    print("|---|" + "---|" * len(columns))
    clean = True
    for name, verdicts in rows:
        if not verdicts:
            print(f"| {name} | " + " | ".join(["does not apply"]
                                               * len(columns)) + " |")
            continue
        cells = ["x" if verdicts[c] else "·" for c in columns]
        print(f"| {name} | " + " | ".join(cells) + " |")
        if name == "(none)" and any(verdicts.values()):
            clean = False
    print("\nFirst failure line of every catch:\n")
    for name, verdicts in rows:
        for column in columns:
            why = verdicts.get(column)
            if why:
                print(f"- {name}, `{column}`: {why}")
    caught = {c: [n for n, v in rows if v.get(c)] for c in columns}
    print("\nRows each harness catches:\n")
    for column in columns:
        found = ", ".join(name[:2] for name in caught[column])
        print(f"- `{column}`: {found or 'none'}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
