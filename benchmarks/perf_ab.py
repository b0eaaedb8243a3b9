"""Interleaved A/B of a reference commit against the working tree.

``make perf-ab REF=<sha> [WORKLOAD=...] [METRIC=...]`` — the measurement
protocol of docs/PERFORMANCE.md ("Keeping it honest") as a command.  Wall-clock
numbers on this container drift by ~15 % between sessions, so a
speed-up is only read off *pairs*: ``REF`` is exported into a scratch
directory (``git archive``: the committed files, nothing else, and no
worktree registration left behind if the run is killed), and for each
pair the layered benchmark (``benchmarks/ledger/run.py``, exactly as
``BENCHMARK.json`` declares it) runs once on each side in a fresh
process, alternating which side goes first.  Each side runs its *own*
``benchmarks/ledger/``, and a claim needs identical benchmark code on
both sides, so the tool exits 2 before measuring when ``REF`` and the
working tree differ in ``BENCHMARK.json`` or ``benchmarks/ledger/``.

Every pair is printed as it finishes; then, per end-to-end metric,
each side's median and quartiles and whether the working tree is worse
than ``REF`` by more than the metric's ``BENCHMARK.json`` bound.  For
the claimed metric (``--metric`` / ``METRIC=``, default
``host_ops_per_s``; a name that is not an ``end_to_end`` metric of
``BENCHMARK.json`` is refused before anything runs) the
choosing-metrics rule is applied: a gain is shown only when the
working tree wins at least nine tenths of the pairs (ties count for
neither side) **and** the medians differ by more than the distance
between the quartiles of ``REF``'s own runs.  Per workload it also
says whether every ``sim_*`` value was bit-identical between the sides
in every pair — the precondition of every engine-only claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: What must be the same on both sides for a pair to compare anything.
BENCHMARK_PATHS = ("BENCHMARK.json", "benchmarks/ledger")


def benchmark_differs(ref: str) -> bool:
    """True when ``ref``'s benchmark is not the working tree's."""
    changed = subprocess.run(
        ["git", "-C", ROOT, "diff", "--quiet", ref, "--", *BENCHMARK_PATHS])
    if changed.returncode not in (0, 1):
        raise SystemExit(f"perf-ab: cannot compare against {ref!r}")
    untracked = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "--others", "--exclude-standard",
         "--", *BENCHMARK_PATHS], stdout=subprocess.PIPE, text=True)
    return changed.returncode == 1 or bool(untracked.stdout.strip())


def export_ref(ref: str, target: str) -> None:
    """Unpack the committed tree of ``ref`` into ``target``."""
    os.makedirs(target)
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        stdout=subprocess.PIPE)
    unpack = subprocess.run(["tar", "-x", "-C", target],
                            stdin=archive.stdout)
    if archive.wait() != 0 or unpack.returncode != 0:
        raise SystemExit(f"perf-ab: cannot export {ref!r} from {ROOT}")


def run_once(tree: str, out: str, workload: str, seed: int,
             seconds: float) -> Dict[str, float]:
    """One untraced benchmark run of ``tree``; its end-to-end metrics."""
    shutil.rmtree(out, ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", out],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"perf-ab: benchmark failed in {tree}:\n{done.stdout[-2000:]}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    if result["failed"]:
        raise SystemExit(
            f"perf-ab: {result['failed']} of {result['attempted']} "
            f"operations failed in {tree}")
    return dict(result["end_to_end"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]  # --pairs 1 smoke runs
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge_gain(ref: Sequence[float], change: Sequence[float],
               higher_is_better: bool) -> Tuple[bool, str]:
    """The choosing-metrics rule for a claimed gain, with its evidence."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for a, b in zip(ref, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(ref, change) if sign * (b - a) < 0)
    ref_q1, ref_median, ref_q3 = quartiles(ref)
    _q1, change_median, _q3 = quartiles(change)
    gap = sign * (change_median - ref_median)
    spread = ref_q3 - ref_q1
    pairs = len(ref)
    shown = pairs >= 10 and wins >= 0.9 * pairs and gap > spread
    evidence = (
        f"{wins}/{pairs} wins ({losses} losses), median gap "
        f"{gap:+.4g} ({gap / ref_median:+.1%} of REF) vs REF quartile "
        f"distance {spread:.4g}")
    return shown, evidence


def report(workload: str, contract: Dict[str, Dict[str, Any]],
           claimed: str, ref_runs: List[Dict[str, float]],
           change_runs: List[Dict[str, float]]) -> None:
    print(f"\n== {workload}: {len(ref_runs)} pairs ==")
    sim_names = [name for name in contract if name.startswith("sim_")]
    moved = sorted({name for ref, change in zip(ref_runs, change_runs)
                    for name in sim_names if ref[name] != change[name]})
    print(f"sim-clock metrics ({', '.join(sim_names)}): "
          + (f"MOVED between the sides: {', '.join(moved)} — not an "
             "engine-only change" if moved
             else "bit-identical between the sides in every pair"))
    print(f"{'metric':<20}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}")
    for name, spec in contract.items():
        ref = [run[name] for run in ref_runs]
        change = [run[name] for run in change_runs]
        for side, values in (("REF", ref), ("change", change)):
            q1, median, q3 = quartiles(values)
            print(f"{name:<20}{side:<8}{q1:>12.5g}{median:>12.5g}{q3:>12.5g}")
        higher = spec["better"] == "higher"
        ref_median = quartiles(ref)[1]
        change_median = quartiles(change)[1]
        worse_by = ((ref_median - change_median) if higher
                    else (change_median - ref_median)) / ref_median
        bound = float(spec["bound"])
        verdict = "REGRESSION" if worse_by > bound else "within bound"
        direction = "worse" if worse_by > 0 else "better"
        print(f"  {name}: change's median is {abs(worse_by):.1%} "
              f"{direction} than REF's (bound {bound:.0%} worse): {verdict}")
        if name == claimed:
            shown, evidence = judge_gain(ref, change, higher)
            print(f"  claim on {name}: "
                  f"{'GAIN SHOWN' if shown else 'gain NOT shown'} — "
                  f"{evidence}")


def main(argv: Sequence[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    contract = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(prog="perf-ab", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--ref", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--metric", default="host_ops_per_s",
                        choices=sorted(contract),
                        help="the end-to-end metric a gain is claimed on")
    args = parser.parse_args(argv)
    if benchmark_differs(args.ref):
        print(f"perf-ab: {' or '.join(BENCHMARK_PATHS)} differs between "
              f"{args.ref} and the working tree; a claim needs identical "
              "benchmark code on both sides", file=sys.stderr)
        return 2
    if args.pairs < 10:
        print("perf-ab: fewer than 10 pairs cannot support a claim "
              "(choosing-metrics, section 8); measuring anyway",
              file=sys.stderr)

    scratch = tempfile.mkdtemp(prefix="perf-ab-")
    try:
        trees = {"REF": os.path.join(scratch, "ref"), "change": ROOT}
        export_ref(args.ref, trees["REF"])
        for workload in args.workload or names:
            runs: Dict[str, List[Dict[str, float]]] = {"REF": [], "change": []}
            for pair in range(args.pairs):
                order = ("REF", "change") if pair % 2 == 0 \
                    else ("change", "REF")
                for side in order:
                    runs[side].append(run_once(
                        trees[side], os.path.join(scratch, f"out-{side}"),
                        workload, args.seed, args.seconds))
                ref_value = runs["REF"][-1][args.metric]
                change_value = runs["change"][-1][args.metric]
                print(f"{workload} pair {pair + 1:>2} ({order[0]} first): "
                      f"{args.metric} REF {ref_value:.5g}  "
                      f"change {change_value:.5g}  "
                      f"({change_value / ref_value - 1:+.1%})", flush=True)
            report(workload, contract, args.metric,
                   runs["REF"], runs["change"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
