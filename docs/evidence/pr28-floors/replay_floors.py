"""Replay the absolute ops/s floors of ``tests/perf/test_perf_smoke.py``
over the history that carried them.

    python replay_floors.py --out FILE [--repo .] SHA...

For each commit, ``git archive <sha>`` is unpacked into a temporary
directory (``$TMPDIR``) and two things run there, one after the other,
in fresh processes with ``PYTHONPATH=src``:

* the commit's own test file, ``python -m pytest -rA
  tests/perf/test_perf_smoke.py -k absolute_floor`` with
  ``PERF_FLOOR=1`` — the gate exactly as CI ran it; the PASSED/FAILED
  lines of its summary are the verdict (``-v`` would not do: the
  repo's ``addopts = "-q"`` cancels it);
* the margin: for every scenario in that file's ``FLOOR_OPS_PER_SEC``,
  the best of three full-scale ``run_scenario`` calls (the test's own
  rule) divided by the floor.

The report is one JSON object per commit (``--out``, one per line) and
a table on stdout.  Exit status 1 when any floor tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

MARGINS = """
import importlib.util, json
from repro.analysis.perf import run_scenario
spec = importlib.util.spec_from_file_location(
    "smoke", "tests/perf/test_perf_smoke.py")
smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke)
rows = {}
for name, floor in sorted(smoke.FLOOR_OPS_PER_SEC.items()):
    best = max(run_scenario(name).ops_per_sec for _ in range(3))
    rows[name] = {"floor": floor, "best_ops_per_sec": round(best, 1),
                  "margin": round(best / floor, 2)}
print(json.dumps(rows))
"""


def _git(repo: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True).stdout


def _replay(repo: str, sha: str) -> Dict[str, object]:
    subject = _git(repo, "log", "-1", "--format=%h %s", sha).decode().strip()
    env = dict(os.environ, PERF_FLOOR="1", PYTHONPATH="src")
    with tempfile.TemporaryDirectory() as root:
        archive = os.path.join(root, "tree.tar")
        with open(archive, "wb") as handle:
            handle.write(_git(repo, "archive", sha))
        with tarfile.open(archive) as tar:
            tar.extractall(root)
        os.remove(archive)
        gate = subprocess.run(
            [sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider",
             "tests/perf/test_perf_smoke.py", "-k", "absolute_floor"],
            cwd=root, env=env, capture_output=True, text=True)
        verdicts = {}
        for line in gate.stdout.splitlines():
            word, _, test = line.partition(" ")
            if "test_scenario_clears_absolute_floor[" in test:
                name = test.split("[", 1)[1].split("]", 1)[0]
                verdicts[name] = word
        margins = subprocess.run(
            [sys.executable, "-c", MARGINS], cwd=root, env=env,
            capture_output=True, text=True, check=True)
    return {"commit": subject, "pytest_exit": gate.returncode,
            "verdicts": verdicts, "margins": json.loads(margins.stdout)}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=".")
    parser.add_argument("--out", required=True)
    parser.add_argument("shas", nargs="+")
    args = parser.parse_args(argv)
    tripped = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for sha in args.shas:
            row = _replay(args.repo, sha)
            out.write(json.dumps(row, sort_keys=True) + "\n")
            out.flush()
            failed = [n for n, v in row["verdicts"].items() if v != "PASSED"]
            if set(row["verdicts"]) != set(row["margins"]):
                failed.append("not-run")
            tripped += bool(failed) or row["pytest_exit"] != 0
            cells = " ".join(
                f"{name}={m['margin']:.1f}x"
                for name, m in sorted(row["margins"].items()))
            print(f"{row['commit'][:48]:<48} "
                  f"{'TRIPPED ' + ','.join(failed) if failed else 'pass':<8}"
                  f" {cells}", flush=True)
    print(f"verdict: {tripped} of {len(args.shas)} commit(s) tripped a floor")
    return 1 if tripped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
