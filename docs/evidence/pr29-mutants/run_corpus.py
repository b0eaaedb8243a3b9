"""Score every blocking gate against the re-seeded bug corpus.

    python run_corpus.py [--ref REF] [--out FILE] [PATCH...]

For the unpatched tree and then for each ``*.patch`` in this directory
(or the ones named), the runner exports REF (default ``HEAD``) with
``git archive`` into a temporary directory, applies the patch with
``git apply`` and runs, inside that copy, one after the other:

* ``make test``: tier-1, stopping at the first failure (its id is kept);
* ``make analyzers``: the rule codes it reports;
* ``make mc``: the model checker;
* ``make bench``: the paper tables, pinned to
  ``benchmarks/paper_numbers.json``, and their shape assertions.

mypy runs only in CI, so its column always reads "not run".  Prints a
markdown table and writes every gate's verdict and tail of output to
FILE (JSON).  A row whose patch no longer applies reads "does not apply".
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
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: (column, command, timeout in seconds)
GATES: List[Tuple[str, List[str], int]] = [
    ("tier-1", ["make", "test"], 900),
    ("analyzers", ["make", "analyzers"], 300),
    ("mc", ["make", "mc"], 600),
    ("bench", ["make", "bench"], 900),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
_CODE = re.compile(r":\d+:\d+: ([A-Z]{3}\d{3}) ")


def _export(repo: str, ref: str, root: str) -> None:
    archive = os.path.join(root, "tree.tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", repo, "archive", ref], check=True,
                       stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(root)
    os.remove(archive)


def _verdict(gate: str, code: int, out: str) -> Tuple[bool, str]:
    """(caught, what to show in the table) for one gate's run."""
    if code == 0:
        return False, "pass"
    if gate == "analyzers":
        codes = sorted(set(_CODE.findall(out)))
        return True, " ".join(codes) if codes else f"exit {code}"
    if gate == "mc":
        broken = [line.split("|")[0].strip() for line in out.splitlines()
                  if line.rstrip().endswith("| BROKEN")]
        return True, ("BROKEN: " + ", ".join(broken) if broken
                      else f"exit {code}")
    failed = _FAILED.findall(out)
    return True, failed[0] if failed else f"exit {code}"


def run_tree(repo: str, ref: str, patch: Optional[str]) -> Dict[str, object]:
    row: Dict[str, object] = {
        "mutant": os.path.basename(patch)[:-len(".patch")] if patch
        else "(none)", "gates": {}}
    with tempfile.TemporaryDirectory(prefix="corpus-") as root:
        _export(repo, ref, root)
        if patch is not None:
            applied = subprocess.run(["git", "apply", patch], cwd=root,
                                     capture_output=True, text=True)
            if applied.returncode != 0:
                row["error"] = "does not apply: " + applied.stderr.strip()
                return row
        for gate, command, timeout in GATES:
            start = time.monotonic()
            try:
                proc = subprocess.run(command, cwd=root, timeout=timeout,
                                      capture_output=True, text=True)
                code, out = proc.returncode, proc.stdout + proc.stderr
            except subprocess.TimeoutExpired:
                code, out = -1, "timeout"
            caught, shown = _verdict(gate, code, out)
            row["gates"][gate] = {  # type: ignore[index]
                "caught": caught, "shown": shown, "exit": code,
                "seconds": round(time.monotonic() - start, 1),
                "tail": out[-1500:]}
            print(f"  {row['mutant']:<34} {gate:<13} {shown}",
                  file=sys.stderr, flush=True)
    return row


def table(rows: List[Dict[str, object]]) -> str:
    names = [gate for gate, _, _ in GATES]
    lines = ["| mutant | " + " | ".join(names) + " | mypy | caught by |",
             "|---" * (len(names) + 3) + "|"]
    for row in rows:
        if "error" in row:
            lines.append(f"| {row['mutant']} | {row['error']} |")
            continue
        gates = row["gates"]
        cells = [gates[n]["shown"] for n in names]  # type: ignore[index]
        caught = [n for n in names if gates[n]["caught"]]  # type: ignore[index]
        lines.append(f"| {row['mutant']} | " + " | ".join(cells)
                     + " | not run | " + (", ".join(caught) or "NOTHING")
                     + " |")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--repo", default=".")
    parser.add_argument("--out", default=None)
    parser.add_argument("patches", nargs="*")
    args = parser.parse_args(argv)
    patches = [os.path.abspath(p) for p in args.patches] or sorted(
        glob.glob(os.path.join(HERE, "*.patch")))
    rows = [run_tree(args.repo, args.ref, None)]
    for patch in patches:
        rows.append(run_tree(args.repo, args.ref, patch))
    print(table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"ref": args.ref, "rows": rows}, handle, indent=1)
            handle.write("\n")
    baseline = rows[0]["gates"]
    uncaught = [row["mutant"] for row in rows[1:]
                if "error" in row or not any(
                    g["caught"] for g in row["gates"].values())]  # type: ignore[union-attr]
    clean = not any(g["caught"] for g in baseline.values())  # type: ignore[union-attr]
    return 0 if clean and not uncaught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
