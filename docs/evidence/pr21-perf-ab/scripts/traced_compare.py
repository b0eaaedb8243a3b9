"""Traced pass of the parent and of the working tree, compared.

usage: traced_compare.py <parent-tree> <change-tree> <seed> [<seed> ...]

Runs ``benchmarks/ledger/run.py --seconds 1 --trace 1`` for every
workload on each side (one after the other, so ``*.host_self_s`` is
indicative only) and prints every metric that is not a host-clock
reading and differs, then the call counts per layer.
"""
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("sync-sparse", "burst-rw", "tpcc-trail", "crash-recover")
HOST = ("host_ops_per_s", "setup_s", "peak_rss_mb", "core.recovery.host_s")


def run(tree, workload, seed, out):
    subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--out", out],
        cwd=tree, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def is_host(name):
    return (name in HOST or name.endswith(".host_self_s")
            or name.startswith("bench."))


def main():
    parent, change = sys.argv[1], sys.argv[2]
    seeds = [int(seed) for seed in sys.argv[3:]]
    scratch = tempfile.mkdtemp(prefix="traced-")
    for workload in WORKLOADS:
        for seed in seeds:
            a = run(parent, workload, seed, os.path.join(scratch, "a"))
            b = run(change, workload, seed, os.path.join(scratch, "b"))
            va = {**a["end_to_end"], **a["per_layer"]}
            vb = {**b["end_to_end"], **b["per_layer"]}
            assert va.keys() == vb.keys()
            moved = {name: (va[name], vb[name]) for name in va
                     if not is_host(name) and va[name] != vb[name]}
            print(f"{workload} seed {seed} metrics {len(va)} failed "
                  f"{a['failed']}/{b['failed']} correct "
                  f"{a['correct']}/{b['correct']} non-host diffs: {moved}")
            for name in ("sim.events_dispatched", "sim_lat_ms_mean",
                         "sim_lat_ms_tail10", "sim_ops_per_s"):
                print(f"    {name} {va[name]!r} -> {vb[name]!r}")
            for name in sorted(va):
                if name.endswith(".calls"):
                    x, y = va[name], vb[name]
                    pct = f" ({(y - x) / x:+.2%})" if x else ""
                    print(f"    {name} {x:.0f} -> {y:.0f}{pct}")
            print("    " + "; ".join(
                f"{name} {va[name]:.3f} -> {vb[name]:.3f}"
                for name in ("disk.host_self_s", "stdlib.host_self_s",
                             "peak_rss_mb")), flush=True)


main()
