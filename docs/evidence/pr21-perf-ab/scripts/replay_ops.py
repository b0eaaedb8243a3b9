"""Replay a recorded op trace against one tree's SectorStore: replay_ops.py <tree> <trace> [repeats]"""
import gc, os, pickle, sys, time
tree, trace = sys.argv[1], sys.argv[2]
repeats = int(sys.argv[3]) if len(sys.argv) > 3 else 7
sys.path.insert(0, os.path.join(tree, "src"))
from repro.disk.sectors import SectorStore
ops = pickle.load(open(trace, "rb"))
best = None
for _ in range(repeats):
    stores = {}
    gc.collect()
    t = time.perf_counter()
    for op in ops:
        name = op[0]
        if name == "write":
            stores[op[1]].write(op[2], op[3])
        elif name == "read":
            stores[op[1]].read(op[2], op[3])
        elif name == "init":
            stores[op[1]] = SectorStore(op[2], op[3])
        else:
            getattr(stores[op[1]], name)(*op[2:])
    wall = time.perf_counter() - t
    best = wall if best is None else min(best, wall)
print(f"{os.path.basename(tree):<8} {os.path.basename(trace)} ops {len(ops)} fastest {best:.4f} s", flush=True)
