"""``check``: two sets of runs of the same code must agree.

Every workload runs twice in fresh processes with the same seed — the
second time traced, which repeats the whole untraced protocol and then
adds the traced pass, so the tracing guards are exercised too.  Sim-clock
metrics and ``failed_op_share`` must be exactly equal; host-clock
end-to-end metrics may differ by their ``BENCHMARK.json`` bound
(``setup_s``: by its bound or 0.2 s, whichever is larger).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

from benchmarks.ledger.cli import LEDGER_DIR
from benchmarks.ledger.layers import SIM_LAYER_UNITS
from benchmarks.ledger.protocol import END_TO_END_UNITS, SIM_E2E_EXTRA_UNITS
from benchmarks.ledger.trace import LEDGER_LAYERS
from benchmarks.ledger.workloads import WORKLOADS

SETUP_FLOOR_S = 0.2


def load_benchmark_json() -> Dict[str, Any]:
    root = os.path.dirname(os.path.dirname(LEDGER_DIR))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _one_run(workload: str, seed: int, seconds: float, smoke: bool,
             trace: int, out_dir: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(LEDGER_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} run failed ({done.returncode}):\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare(first: Dict[str, Any], second: Dict[str, Any],
            bounds: Dict[str, Dict[str, Any]]) -> List[str]:
    """Disagreements between two runs' results (empty = they agree)."""
    problems = []
    exact = [n for n in END_TO_END_UNITS if n.startswith("sim_")]
    for name in exact + list(SIM_E2E_EXTRA_UNITS) + list(SIM_LAYER_UNITS):
        group = "end_to_end" if name in END_TO_END_UNITS else "per_layer"
        a, b = first[group][name], second[group][name]
        if a != b:
            problems.append(f"{name}: {a!r} != {b!r} (must be equal)")
    for name in END_TO_END_UNITS:
        if name in exact:
            continue
        a, b = first["end_to_end"][name], second["end_to_end"][name]
        allowed = bounds[name]["bound"] * min(a, b)
        if name == "setup_s":
            allowed = max(allowed, SETUP_FLOOR_S)
        if abs(a - b) > allowed:
            problems.append(
                f"{name}: {a:.4f} vs {b:.4f} differ by more than "
                f"{allowed:.4f}")
    return problems


def run_check(seed: int, seconds: float, smoke: bool) -> int:
    bounds = {metric["name"]: metric
              for metric in load_benchmark_json()["end_to_end"]}
    failures = 0
    with tempfile.TemporaryDirectory(
            dir=LEDGER_DIR, prefix="out-check-") as scratch:
        for workload in WORKLOADS:
            first = _one_run(workload, seed, seconds, smoke, 0,
                             os.path.join(scratch, f"{workload}-a"))
            second = _one_run(workload, seed, seconds, smoke, 1,
                              os.path.join(scratch, f"{workload}-b"))
            problems = compare(first, second, bounds)
            ledger_s = sum(second["per_layer"][f"{layer}.host_self_s"]
                           for layer in LEDGER_LAYERS)
            if ledger_s <= 0:
                problems.append("traced run produced no host ledger")
            print(f"{workload}: set A | set B (traced)")
            for name, unit in END_TO_END_UNITS.items():
                print(f"  {name:<20} {first['end_to_end'][name]:>16.6f} | "
                      f"{second['end_to_end'][name]:>16.6f} {unit}")
            for name, unit in SIM_E2E_EXTRA_UNITS.items():
                if first["per_layer"][name] or second["per_layer"][name]:
                    print(f"  {name:<20} {first['per_layer'][name]:>16.6f}"
                          f" | {second['per_layer'][name]:>16.6f} {unit}")
            print(f"  failed_op_share      "
                  f"{first['per_layer']['failed_op_share']:>16.6f} | "
                  f"{second['per_layer']['failed_op_share']:>16.6f}")
            print(f"  trace overhead x{second['per_layer']['bench.trace_overhead']:.2f},"
                  f" noisy: {first['noisy']} | {second['noisy']}")
            for problem in problems:
                print(f"  DISAGREE {problem}")
            failures += len(problems)
    print("check: " + ("PASS" if not failures
                       else f"FAIL ({failures} disagreements)"))
    return 0 if not failures else 1
