"""Contract entry point: ``python3 benchmarks/ledger/run.py --workload W
--seed N --seconds S --trace 0|1`` from the root of a checkout."""

import os
import sys
import time

STARTED = time.perf_counter()  # before any import of the system under test
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

if __name__ == "__main__":
    try:
        from benchmarks.ledger.cli import main
    except ModuleNotFoundError as missing:
        sys.exit(f"benchmarks/ledger measures the repository's src/ tree "
                 f"and cannot run without it: {missing}")
    sys.exit(main(sys.argv[1:], STARTED))
