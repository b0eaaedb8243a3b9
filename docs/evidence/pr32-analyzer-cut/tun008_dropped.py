"""Show that every TUN008 finding the cut drops names no time value.

    python tun008_dropped.py --before CHECKOUT --after CHECKOUT SHA...

For each commit this exports ``src`` with ``git archive``, runs
``python -m tools.analysis --json src`` once with BEFORE's analyzers
and once with AFTER's, and compares the TUN008 findings.  A finding
AFTER still reports must be one BEFORE reports at the same place.  A
finding only BEFORE reports lists the parameter (or ``return``) names
it called unit-less (for ``return``, the function's name); each
must be a name AFTER's time heuristics
(``tools.trailunits.lattice.heuristic_dim``) do not read as a time.
Prints one line per commit and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

_NAMES = re.compile(r"signature of '(?:\w+\.)*(\w+)' leaves (.*) unit-less")


def _tun008(checkout: str, root: str) -> Dict[Tuple[str, int], List[str]]:
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "--root", root, "--json",
         "src"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"analyzers failed in {checkout}:\n{proc.stderr}")
    found = {}
    for finding in json.loads(proc.stdout)["tools"]["trailunits"][
            "findings"]:
        if finding["code"] == "TUN008":
            # ``return`` stands for the function's own name.
            func, names = _NAMES.search(finding["message"]).groups()
            found[(finding["path"], finding["line"])] = [
                func if name == "return" else name
                for name in re.findall(r"'(\w+)'", names)]
    return found


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--repo", default=".")
    parser.add_argument("shas", nargs="+")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.after))
    from tools.trailunits.lattice import UNKNOWN, heuristic_dim
    bad = 0
    for sha in args.shas:
        with tempfile.TemporaryDirectory() as root:
            archive = os.path.join(root, "tree.tar")
            with open(archive, "wb") as handle:
                handle.write(subprocess.run(
                    ["git", "-C", args.repo, "archive", sha, "src"],
                    check=True, capture_output=True).stdout)
            with tarfile.open(archive) as tar:
                tar.extractall(root)
            before = _tun008(os.path.abspath(args.before), root)
            after = _tun008(os.path.abspath(args.after), root)
        invented = sorted(set(after) - set(before))
        dropped = sorted(set(before) - set(after))
        timed = [(where, name) for where in dropped
                 for name in before[where]
                 if heuristic_dim(name) != UNKNOWN]
        bad += len(invented) + len(timed)
        names = sorted({name for where in dropped for name in before[where]})
        print(f"{sha} kept {len(after)} dropped {len(dropped)} "
              f"invented {len(invented)} time-named drops {len(timed)}"
              + (f"; dropped names: {', '.join(names)}" if names else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
