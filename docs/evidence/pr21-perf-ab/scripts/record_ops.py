"""Record every SectorStore call of one full pass of the working tree.

usage: record_ops.py <workload> <seed> <out.pickle>   (the pickle holds
every byte written: 100-360 MB; replay it with replay_ops.py)
"""
import os, pickle, sys
workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), *[".."] * 4))
sys.path.insert(0, os.path.join(ROOT, "src")); sys.path.insert(0, ROOT)
from repro.disk import sectors
from benchmarks.ledger.workloads import WORKLOADS
ops = []
ids = {}
S = sectors.SectorStore
def wrap(name):
    orig = getattr(S, name)
    def inner(self, *a):
        sid = ids.setdefault(id(self), len(ids))
        if name in ("write", "write_sector"):
            ops.append((name, sid, a[0], bytes(a[1]) if type(a[1]) is not bytes else a[1]))
        else:
            ops.append((name, sid) + a)
        return orig(self, *a)
    setattr(S, name, inner)
_init = S.__init__
def init(self, *a, **k):
    _init(self, *a, **k)
    sid = ids.setdefault(id(self), len(ids))
    ops.append(("init", sid, self.total_sectors, self.sector_size))
S.__init__ = init
for n in ("write", "write_sector", "read", "read_sector", "erase", "clear", "is_written"):
    wrap(n)
r = WORKLOADS[workload](seed, 1.0)
assert r.failed == 0
# write_sector/read_sector delegate to write/read in the change: drop the nested duplicates
flat = []
skip = False
for op in ops:
    if skip:
        skip = False
        continue
    flat.append(op)
    if op[0] in ("write_sector", "read_sector"):
        skip = True
with open(out, "wb") as f:
    pickle.dump(flat, f)
from collections import Counter
print(Counter(op[0] for op in flat))
