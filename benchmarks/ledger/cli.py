"""Command line of the benchmark.

``run`` (the default, and the contract command of ``BENCHMARK.json``)
runs one workload and prints the report, then one JSON object as the
last line.  ``check`` runs every workload twice and compares the sets.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List

from benchmarks.ledger.protocol import run_workload
from benchmarks.ledger.report import render
from benchmarks.ledger.workloads import WORKLOADS

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
#: ``--smoke``: 1/50 size, two timed passes.
SMOKE_SCALE = 0.02


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="required by run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 size, two timed passes")
    parser.add_argument("--inject-loss", action="store_true",
                        help="self-test: corrupt one expected output; "
                             "the run must report failed > 0")
    parser.add_argument("--out", help="output directory (default: "
                        "out/<workload>-seed<n>-trace<t> beside this file)")
    return parser


def main(argv: List[str], started: float) -> int:
    """``started``: host clock when the process began importing."""
    command = "run"
    if argv and argv[0] in ("run", "check"):
        command, argv = argv[0], argv[1:]
    args = _parser().parse_args(argv)
    if command == "check":
        from benchmarks.ledger.check import run_check

        return run_check(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        _parser().error("run needs --workload")
    return _run(args, started)


def _run(args: argparse.Namespace, started: float) -> int:
    import_s = time.perf_counter() - started
    out_dir = args.out or os.path.join(
        LEDGER_DIR, "out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    result = run_workload(
        args.workload, args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        trace=bool(args.trace),
        scale=SMOKE_SCALE if args.smoke else 1.0,
        inject_loss=args.inject_loss, import_s=import_s, out_dir=out_dir,
        log=lambda line: print(line, file=sys.stderr, flush=True))
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**dataclasses.asdict(result), "correct": result.correct,
                   "traced": bool(args.trace)}, handle, indent=1)
    print(render(result, traced=bool(args.trace)))
    print(result.contract_line(trace=bool(args.trace)))
    return 0 if result.correct else 1
