"""The session sanitizer's column of the bug × gate table.

    python sanitizer.py [--ref REF] [PATCH...] > sanitizer.md

Exports REF (default ``HEAD``; pass ``$(git stash create)`` for a
working tree) with ``git archive`` into a temporary directory.  For
the unpatched copy and then for each ``*.patch`` of the bug corpus
(``docs/evidence/pr29-mutants``, or the ones named) it applies the
patch, runs all of tier-1 once without ``-x`` (``tests/conftest.py``
sets ``TRAILSAN=1`` for the session), and reverts the patch.  From
pytest's JUnit XML it counts the failing tests and, among them, those
whose failure is a ``SanitizerError``: the tests that see the bug
through the sanitizer.  Prints one markdown row per patch.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import tarfile
import tempfile
import xml.etree.ElementTree as ET
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "pr29-mutants")


def _export(repo: str, ref: str, root: str) -> None:
    archive = os.path.join(root, "tree.tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", repo, "archive", ref], check=True,
                       stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(root)
    os.remove(archive)


def _tier1(root: str) -> Tuple[int, int]:
    """(failing tests, failing tests whose failure is a SanitizerError)."""
    report = os.path.join(root, "junit.xml")
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("TRAILSAN", None)
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", f"--junitxml={report}"],
                   cwd=root, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=1800)
    failed = sanitized = 0
    for case in ET.parse(report).getroot().iter("testcase"):
        for bad in list(case.findall("failure")) + list(
                case.findall("error")):
            failed += 1
            text = (bad.get("message") or "") + (bad.text or "")
            sanitized += "SanitizerError" in text
            break
    os.remove(report)
    return failed, sanitized


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("patches", nargs="*")
    args = parser.parse_args()
    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          cwd=HERE, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()
    patches = ([os.path.abspath(p) for p in args.patches]
               or sorted(glob.glob(os.path.join(CORPUS, "*.patch"))))
    rows: List[Tuple[str, str]] = []
    with tempfile.TemporaryDirectory(prefix="sanitizer-") as root:
        _export(repo, args.ref, root)
        failed, sanitized = _tier1(root)
        rows.append(("(none)", f"{failed} | {sanitized}"))
        for patch in patches:
            name = os.path.basename(patch)[:-len(".patch")]
            if subprocess.run(["git", "apply", patch], cwd=root).returncode:
                rows.append((name, "does not apply | does not apply"))
                continue
            failed, sanitized = _tier1(root)
            rows.append((name, f"{failed} | {sanitized}"))
            subprocess.run(["git", "apply", "-R", patch], cwd=root,
                           check=True)
            print(f"sanitizer: {name} done", file=sys.stderr)
    print("| row | failing tier-1 tests | of them through `SanitizerError` |")
    print("|---|---|---|")
    for name, cells in rows:
        print(f"| {name} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
