"""Per-pass getrusage of full-size benchmark passes in a fresh process.

usage: rusage_passes.py <tree> <workload> <seed> [passes]

No warm-up: pass 1 is the cold pass every real use of the repo pays
(`make bench`, a test, one `run_tpcc`); later passes are warm.  After
the last pass, counts what the live SectorStores of that pass hold
against what was written into them.
"""
import gc
import os
import resource
import sys
import time

tree, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
npasses = int(sys.argv[4]) if len(sys.argv) > 4 else 3
sys.path.insert(0, os.path.join(tree, "src"))
sys.path.insert(0, tree)

from repro.disk import sectors  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

stores = []
_init = sectors.SectorStore.__init__


def _recording_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    stores.append(self)


sectors.SectorStore.__init__ = _recording_init


def held_bytes(store):
    chunks = store._chunks
    total = 0
    for value in chunks.values():
        if isinstance(value, dict):
            total += sum(len(piece) for piece in value.values())
        else:
            total += len(value)
    return total


run_pass = WORKLOADS[workload]
print(f"{workload} seed {seed} tree {tree}")
print(f"{'pass':<6}{'wall_s':>9}{'user_s':>9}{'sys_s':>9}{'minflt':>10}"
      f"{'maxrss_mb':>11}")
for number in range(1, npasses + 1):
    del stores[:]
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF)
    began = time.perf_counter()
    result = run_pass(seed, 1.0)
    wall = time.perf_counter() - began
    after = resource.getrusage(resource.RUSAGE_SELF)
    assert result.failed == 0, result.failed
    print(f"{number:<6}{wall:>9.2f}{after.ru_utime - before.ru_utime:>9.2f}"
          f"{after.ru_stime - before.ru_stime:>9.2f}"
          f"{after.ru_minflt - before.ru_minflt:>10}"
          f"{after.ru_maxrss / 1024.0:>11.1f}", flush=True)
    if number < npasses:
        del result
        gc.collect()

print("stores of the last pass (held = bytes of chunk buffers or pieces; "
      "written = sectors written x sector size):")
for store in stores:
    written = len(store) * store.sector_size
    if not written:
        continue
    held = held_bytes(store)
    pieces = sum(len(value) for value in store._chunks.values()
                 if isinstance(value, dict))
    print(f"  total_sectors {store.total_sectors:>9}  chunks "
          f"{len(store._chunks):>6}  pieces {pieces or '-':>7}  held "
          f"{held / 2**20:>8.1f} MB  written {written / 2**20:>8.1f} MB  "
          f"fill {written / held:.2f}")
