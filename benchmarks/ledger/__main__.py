"""``PYTHONPATH=src python -m benchmarks.ledger run|check ...``"""

import sys
import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main(sys.argv[1:], STARTED))
