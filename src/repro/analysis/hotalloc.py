"""Per-scenario call and allocation budgets.

The per-event and per-record paths stay lean because this module
measures them: each canonical perf scenario executes under a
``sys.setprofile`` hook that counts Python function calls and under
``tracemalloc`` for peak traced bytes, and both numbers are gated
against checked-in per-scenario budgets
(``benchmarks/perf/BENCH_alloc.json``).

Wall-clock gates must be loose because shared machines are noisy; call
counts are *deterministic* for the seeded scenarios, so this gate can
be tight.  A change that adds a per-record frame, a per-event
constructor, or a per-iteration container shows up as an exact
call-count jump long before it is distinguishable from noise in
ops/sec.

Regenerate the budgets after an intentional change with::

    PYTHONPATH=src python -m repro.analysis.hotalloc --update

Every tier-1 run gates them (``tests/perf/test_alloc_budget.py``), with
the sanitizer off, as ``--update`` measures them.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.perf import SCENARIOS

#: Committed per-scenario budgets.
DEFAULT_BUDGET_PATH = (Path(__file__).resolve().parents[3]
                       / "benchmarks" / "perf" / "BENCH_alloc.json")

#: Scale every scenario is measured and gated at.  Small enough that
#: the tier-1 gate stays fast; the call counts still cover thousands
#: of record accesses, so a per-record regression moves them by >10%.
GATE_SCALE = 0.05

#: Budget = measured * headroom.  Call counts are deterministic but a
#: legitimate refactor may add a few frames; peak bytes wobble with
#: allocator/GC timing, so they get more room.
CALL_HEADROOM = 1.4
PEAK_HEADROOM = 2.0


@dataclass
class AllocResult:
    """Allocation profile of one scenario run."""

    scenario: str
    #: Python function calls during the run (``sys.setprofile``).
    calls: int
    #: Peak tracemalloc-traced bytes during the run.
    peak_bytes: int


def measure_scenario(name: str, scale: float = GATE_SCALE) -> AllocResult:
    """Run ``name`` once, counting Python calls and peak traced bytes.

    A tiny warm-up run settles lazy imports and module-level caches
    first, so the measured run reflects steady-state behaviour — the
    thing the budgets are meant to pin.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown perf scenario {name!r} (known: {known})")
    func = SCENARIOS[name]
    func(0.01)  # warm-up: imports and one-time caches
    gc.collect()
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    tracemalloc.start()
    sys.setprofile(count_calls)
    try:
        func(scale)
    finally:
        sys.setprofile(None)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return AllocResult(scenario=name, calls=calls, peak_bytes=peak)


def measure_all(scale: float = GATE_SCALE) -> List[AllocResult]:
    """Measure every canonical scenario."""
    return [measure_scenario(name, scale) for name in sorted(SCENARIOS)]


def load_budgets(path: Path = DEFAULT_BUDGET_PATH) -> Dict:
    """Load the committed budget file."""
    return json.loads(Path(path).read_text())


def write_budgets(results: List[AllocResult],
                  path: Path = DEFAULT_BUDGET_PATH,
                  scale: float = GATE_SCALE) -> Dict:
    """Derive budgets from ``results`` and write them as stable JSON."""
    payload = {
        "scale": scale,
        "call_headroom": CALL_HEADROOM,
        "peak_headroom": PEAK_HEADROOM,
        "scenarios": {
            result.scenario: {
                "measured_calls": result.calls,
                "measured_peak_bytes": result.peak_bytes,
                "max_calls": int(result.calls * CALL_HEADROOM),
                "max_peak_bytes": int(result.peak_bytes * PEAK_HEADROOM),
            }
            for result in results
        },
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check_result(result: AllocResult, budgets: Dict) -> List[str]:
    """Budget violations for one measured scenario (empty = within)."""
    row = budgets["scenarios"].get(result.scenario)
    if row is None:
        return [f"{result.scenario}: no budget committed; run --update"]
    problems = []
    if result.calls > row["max_calls"]:
        problems.append(
            f"{result.scenario}: {result.calls:,} Python calls exceed "
            f"the budget of {row['max_calls']:,} "
            f"(measured baseline {row['measured_calls']:,})")
    if result.peak_bytes > row["max_peak_bytes"]:
        problems.append(
            f"{result.scenario}: peak {result.peak_bytes:,} traced bytes "
            f"exceed the budget of {row['max_peak_bytes']:,} "
            f"(measured baseline {row['measured_peak_bytes']:,})")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotalloc",
        description="measure per-scenario Python-call and peak-allocation "
                    "profiles and gate them against BENCH_alloc.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the budget file from this run")
    parser.add_argument("--json", action="store_true",
                        help="emit the measurements as JSON")
    parser.add_argument("--budget", type=Path, default=DEFAULT_BUDGET_PATH,
                        help="budget file (default: benchmarks/perf/"
                             "BENCH_alloc.json)")
    args = parser.parse_args(argv)
    results = measure_all()
    if args.update:
        payload = write_budgets(results, args.budget)
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"hotalloc: wrote budgets for {len(results)} scenarios "
                  f"to {args.budget}")
        return 0
    if args.json:
        json.dump({result.scenario: {"calls": result.calls,
                                     "peak_bytes": result.peak_bytes}
                   for result in results},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    try:
        budgets = load_budgets(args.budget)
    except FileNotFoundError:
        print(f"hotalloc: no budget file at {args.budget}; "
              f"run with --update first", file=sys.stderr)
        return 2
    problems = [problem for result in results
                for problem in check_result(result, budgets)]
    for problem in problems:
        print(f"hotalloc: OVER BUDGET — {problem}", file=sys.stderr)
    if not problems and not args.json:
        for result in results:
            print(f"  {result.scenario:<13} {result.calls:>9,} calls  "
                  f"{result.peak_bytes:>11,} peak bytes")
        print(f"hotalloc: {len(results)} scenarios within budget")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
