"""Where the memory of one ``crash-recover`` pass is held at its end.

    PYTHONPATH=src:. python docs/evidence/pr37-crash-memory/crash_memory.py \
        [--seed 7] [--top 12]

Runs one pass of the ledger's ``crash-recover`` workload (100 crash +
remount cycles) under ``tracemalloc`` and, at the moment the pass
hands its stack to ``collect`` (every driver and report still alive),
prints:

* the top allocation sites still live, by file and line;
* what each piece of host state the kept drivers and reports hold
  costs: the traced bytes that dropping it frees, dropped one after
  another in this order: the write-back queues (with the records and
  payloads only they still reach), the live tails, the parked pages,
  the per-write sample lists and the reports' pending chains;
* the gc-tracked object count.

Run it from the root of any checkout of the repository: it measures
the code it imports.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from typing import Any, Dict, List

import benchmarks.ledger.workloads as workloads

def _drop(what: str, stack: Any) -> None:
    """Let go of one piece of the host state the kept drivers and
    reports hold, as a crash that freed it would have."""
    for driver in stack.drivers:
        if what == "write-back queues":
            driver.writeback.queue.drain()
        elif what == "live tails":
            driver._live_records.clear()
        elif what == "parked pages":
            driver.writeback.failed_pages.clear()
        elif what == "sync_writes sample lists":
            driver.stats.sync_writes._samples = None
    if what == "recovery reports' pending chains":
        for report in stack.recoveries:
            report.pending = []


#: In this order: what a page in a queue points at (its records) is
#: counted with the queue.
PIECES = ("write-back queues", "live tails", "parked pages",
          "sync_writes sample lists", "recovery reports' pending chains")


def _attribution(stack: Any) -> Dict[str, int]:
    """Traced bytes each piece frees when dropped, one after another."""
    freed: Dict[str, int] = {}
    for what in PIECES:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _drop(what, stack)
        gc.collect()
        freed[what] = before - tracemalloc.get_traced_memory()[0]
    return freed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)

    captured: Dict[str, Any] = {}
    collect = workloads.collect

    def capture(stack: Any) -> Dict[str, float]:
        gc.collect()
        captured["snapshot"] = tracemalloc.take_snapshot()
        captured["traced"] = tracemalloc.get_traced_memory()[0]
        captured["objects"] = len(gc.get_objects())
        captured["drivers"] = len(stack.drivers)
        captured["reports"] = len(stack.recoveries)
        captured["backlog"] = sum(d.writeback.backlog for d in stack.drivers)
        chains = [report.pending for report in stack.recoveries]
        captured["records"] = sum(len(chain) for chain in chains)
        captured["entries"] = sum(len(record.header.entries)
                                  for chain in chains for record in chain)
        del chains
        result = collect(stack)
        captured["attribution"] = _attribution(stack)
        return result

    workloads.collect = capture
    tracemalloc.start(1)
    try:
        workloads.crash_recover(args.seed)
    finally:
        tracemalloc.stop()
        workloads.collect = collect

    mb = 1024 * 1024
    print(f"crash-recover seed {args.seed}: {captured['drivers']} drivers "
          f"and {captured['reports']} reports kept, write-back backlog "
          f"summed over them {captured['backlog']}")
    print(f"traced memory live at the end of the pass: "
          f"{captured['traced'] / mb:.1f} MB; gc-tracked objects: "
          f"{captured['objects']:,}")
    print(f"\ntop {args.top} allocation sites still live:")
    for stat in captured["snapshot"].statistics("lineno")[:args.top]:
        frame = stat.traceback[0]
        where = "/".join(frame.filename.split("/")[-3:])
        print(f"  {stat.size / mb:8.2f} MB {stat.count:9,} blocks  "
              f"{where}:{frame.lineno}")
    print("\ntraced bytes each piece of kept host state frees when "
          "dropped, in this order:")
    for name, size in captured["attribution"].items():
        print(f"  {size / mb:8.2f} MB  {name}")
    records = captured["records"]
    if records:
        pending = captured["attribution"]["recovery reports' pending chains"]
        print(f"\npending chains: {records:,} records of "
              f"{captured['entries'] / records:.2f} entries on average, "
              f"{pending / records:,.0f} bytes per record")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
