"""The run protocol: warm-up, timed passes, guards, and the result.

One process, one thread, one workload.  Three discarded warm-up passes
at 1/10 size (an un-warmed first pass measured 1.3-1.8x slower than
later ones: allocator growth and first-touch page faults), then timed
passes at full size with the *same* seed until ``--seconds`` of
measured time have passed (at least two), ``gc.collect()`` between
passes.

* Sim-clock metrics must be bit-identical across the timed passes, and
  in the traced pass; otherwise the run reports ``correct: false``.
* Host-clock metrics come from the fastest timed pass: identical
  deterministic work can only be slowed by a shared machine (one
  interference burst moved a 5-pass median by 50 % and the minimum by
  9 %).  The median and ``(median - min) / min`` are reported beside it
  and the run calls itself ``noisy`` above 0.10.
* ``setup_s`` is imports + the median warm-up pass + the median
  assembly (format, mount, TPC-C load) of the timed passes.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from benchmarks.ledger.layers import SIM_LAYER_UNITS
from benchmarks.ledger.trace import LEDGER_LAYERS, TracedPass, run_traced
from benchmarks.ledger.workloads import DB_FREE, WORKLOADS, PassResult

WARMUP_PASSES = 3
WARMUP_SCALE = 0.1
NOISY_SPREAD = 0.10

#: End-to-end metrics of ``BENCHMARK.json``: every workload reports
#: every one and none is ever 0.
END_TO_END_UNITS: Dict[str, str] = {
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_lat_ms_mean": "ms",
    "sim_lat_ms_tail10": "ms",
    "sim_ops_per_s": "1/s",
}

#: End-to-end metrics only some workloads have (0 elsewhere), which
#: the contract therefore files with the unbounded per-layer metrics;
#: ``check`` still holds them exactly equal between two sets.
SIM_E2E_EXTRA_UNITS: Dict[str, str] = {
    "sim_lat_ms_p50": "ms",
    "sim_lat_ms_p99": "ms",
    "sim_read_ms_p50": "ms",
    "sim_read_ms_p99": "ms",
    "sim_drain_ms": "ms",
    "sim_recovery_ms_p50": "ms",
    "sim_recovery_ms_p90": "ms",
    "failed_op_share": "ratio",
}

#: Host-clock metrics only the traced pass can give.
TRACE_UNITS: Dict[str, str] = {
    **{f"{layer}.{kind}": unit
       for layer in LEDGER_LAYERS
       for kind, unit in (("host_self_s", "s"), ("calls", "count"))},
    "sim.events_dispatched": "count",
    "sim.events_per_op": "ratio",
    "core.recovery.host_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.pass_spread": "ratio",
}

PER_LAYER_UNITS: Dict[str, str] = {
    **SIM_E2E_EXTRA_UNITS, **SIM_LAYER_UNITS, **TRACE_UNITS}

#: Every other metric is a cost: lower is better for the same work.
HIGHER_IS_BETTER = frozenset({
    "host_ops_per_s", "sim_ops_per_s", "core.writes_per_record",
    "core.batch_sectors_mean", "core.track_utilization_mean",
    "core.reads_from_buffer", "core.writes_deduplicated",
    "core.writes_cancelled", "db.pool.hits", "db.pool.hit_ratio",
    "db.engine.committed", "tpcc.completed", "tpcc.tpmc",
})


@dataclass
class RunResult:
    """One benchmark run of one workload."""

    workload: str
    seed: int
    passes: int
    attempted: int
    failed: int
    #: Why the run is not correct, if it is not (empty = correct).
    problems: List[str]
    noisy: bool
    end_to_end: Dict[str, float]
    #: Sim-clock workload-specific and per-layer metrics (always), plus
    #: the host ledger and friends when the run was traced.
    per_layer: Dict[str, float]
    #: Extra host-clock detail for the report, not part of the contract.
    host: Dict[str, float] = field(default_factory=dict)
    spans: Optional[Dict[str, Any]] = None

    @property
    def correct(self) -> bool:
        return not self.problems

    def contract_line(self, trace: bool) -> str:
        """The one JSON object the driver reads from the last line."""
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        values = self.per_layer if trace else self.end_to_end
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _differences(first: PassResult, other: PassResult) -> List[str]:
    names = [name for name in first.sim if first.sim[name] != other.sim[name]]
    names += [name for name in first.layers
              if first.layers[name] != other.layers[name]]
    return names


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    inject_loss: bool = False,
    import_s: float = 0.0,
    out_dir: Optional[str] = None,
    log: Callable[[str], None] = lambda _line: None,
) -> RunResult:
    """Run the protocol above; ``import_s`` is the caller's import time."""
    run_pass = WORKLOADS[workload]
    problems: List[str] = []

    warmups = []
    for _ in range(WARMUP_PASSES):
        began = time.perf_counter()
        run_pass(seed, scale * WARMUP_SCALE)
        warmups.append(time.perf_counter() - began)
        gc.collect()
    log(f"warm-up passes: {', '.join(f'{t:.3f}' for t in warmups)} s")

    passes: List[PassResult] = []
    measured = 0.0
    while measured < seconds or len(passes) < 2:
        result = run_pass(seed, scale, inject_loss)
        gc.collect()
        passes.append(result)
        measured += result.assembly_s + result.wall_s
        log(f"pass {len(passes)}: {result.wall_s:.3f} s, "
            f"{result.ops} ops, failed {result.failed}")
    first = passes[0]
    for index, other in enumerate(passes[1:], start=2):
        moved = _differences(first, other)
        if moved:
            problems.append(
                f"pass {index} moved sim-clock metrics: {moved[:5]}")
    if first.failed:
        problems.append(f"{first.failed} of {first.attempted} operations "
                        f"failed their output check")

    walls = sorted(result.wall_s for result in passes)
    fastest, median = walls[0], statistics.median(walls)
    spread = (median - fastest) / fastest
    warmup_s = statistics.median(warmups)
    assembly_s = statistics.median(r.assembly_s for r in passes)
    end_to_end = {
        "host_ops_per_s": first.ops / fastest,
        "setup_s": import_s + warmup_s + assembly_s,
        "peak_rss_mb": peak_rss_mb(),  # read before any traced pass
        "sim_lat_ms_mean": first.sim["sim_lat_ms_mean"],
        "sim_lat_ms_tail10": first.sim["sim_lat_ms_tail10"],
        "sim_ops_per_s": first.sim["sim_ops_per_s"],
    }
    per_layer = {name: first.sim[name] for name in SIM_E2E_EXTRA_UNITS
                 if name in first.sim}
    per_layer["failed_op_share"] = first.failed / first.attempted
    per_layer.update(first.layers)
    per_layer.update(dict.fromkeys(TRACE_UNITS, 0.0))
    per_layer["bench.pass_spread"] = spread
    host = {
        "host_wall_s_min": fastest,
        "host_wall_s_median": median,
        "host_ops_per_s_median": first.ops / median,
        "import_s": import_s,
        "warmup_pass_s": warmup_s,
        "assembly_s": assembly_s,
        "sim_lat_samples": first.sim["sim_lat_samples"],
    }

    spans = None
    if trace:
        traced = run_traced(lambda: run_pass(seed, scale, inject_loss),
                            with_db=workload not in DB_FREE)
        spans = _fold_trace(workload, traced, first, fastest, per_layer,
                            problems)
        if out_dir is not None:
            traced.tracer.write_jsonl(os.path.join(out_dir, "spans.jsonl"))

    return RunResult(
        workload=workload, seed=seed, passes=len(passes),
        attempted=first.attempted * len(passes),
        failed=sum(result.failed for result in passes),
        problems=problems, noisy=spread > NOISY_SPREAD,
        end_to_end=end_to_end, per_layer=per_layer, host=host, spans=spans)


def _fold_trace(workload: str, traced: TracedPass, untraced: PassResult,
                fastest: float, per_layer: Dict[str, float],
                problems: List[str]) -> Dict[str, Any]:
    """Merge the traced pass into ``per_layer``; check its guards."""
    moved = _differences(untraced, traced.result)
    if moved:
        problems.append(f"tracing moved sim-clock metrics: {moved[:5]}")
    for layer, entry in traced.ledger.items():
        per_layer[f"{layer}.host_self_s"] = entry["host_self_s"]
        per_layer[f"{layer}.calls"] = entry["calls"]
    if workload in DB_FREE:
        ran = [layer for layer in ("db", "tpcc")
               if traced.ledger[layer]["calls"]]
        if ran:
            problems.append(f"{workload} executed code of {ran}")
    per_layer["sim.events_dispatched"] = float(traced.events_dispatched)
    per_layer["sim.events_per_op"] = \
        traced.events_dispatched / traced.result.ops
    per_layer["core.recovery.host_s"] = untraced.recovery_host_s
    per_layer["bench.trace_overhead"] = traced.result.wall_s / fastest
    return traced.tracer.summary()
