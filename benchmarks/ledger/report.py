"""Readable report of one run: every metric by name, with its unit.

Sim-clock values that the paper has a number for are printed beside it
with the relative error (``reference.json``); where the paper has
none the line says ``unvalidated``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from benchmarks.ledger.protocol import (
    END_TO_END_UNITS, PER_LAYER_UNITS, TRACE_UNITS, RunResult)
from benchmarks.ledger.trace import LEDGER_LAYERS

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference.json")


def load_references(workload: str) -> Dict[str, Any]:
    with open(_REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _reference_note(name: str, value: float,
                    references: Dict[str, Any]) -> str:
    for entry in references["references"]:
        if entry["metric"] != name:
            continue
        paper = entry["paper"]
        if entry["kind"] == "upper":
            verdict = "holds" if value < paper else "EXCEEDED"
            return f"  paper < {paper:g} {entry['unit']}: {verdict}"
        error = (value - paper) / paper
        return (f"  paper {paper:g} {entry['unit']}, "
                f"relative error {error:+.1%}")
    if name in references["unvalidated"]:
        return "  unvalidated (no paper figure)"
    return ""


def render(result: RunResult, traced: bool) -> str:
    """The whole report as text."""
    references = load_references(result.workload)
    lines: List[str] = []
    flags = ("" if result.correct else "  INCORRECT") + \
        ("  noisy" if result.noisy else "")
    lines.append(
        f"workload {result.workload}  seed {result.seed}  "
        f"timed passes {result.passes}  latency samples "
        f"{int(result.host['sim_lat_samples'])}{flags}")
    for problem in result.problems:
        lines.append(f"  problem: {problem}")

    def row(name: str, value: float, unit: str, note: str = "") -> None:
        lines.append(f"  {name:<36} {value:>16.6f} {unit:<7}{note}")

    lines.append("end-to-end")
    for name, unit in END_TO_END_UNITS.items():
        note = _reference_note(name, result.end_to_end[name], references)
        if name == "host_ops_per_s":
            note = (f"  fastest pass; median "
                    f"{result.host['host_ops_per_s_median']:.1f}, "
                    f"(median-min)/min "
                    f"{result.per_layer['bench.pass_spread']:.3f}")
        elif name == "setup_s":
            note = (f"  imports {result.host['import_s']:.3f} + warm-up "
                    f"{result.host['warmup_pass_s']:.3f} + assembly "
                    f"{result.host['assembly_s']:.3f}")
        row(name, result.end_to_end[name], unit, note)
    lines.append(f"  failed {result.failed} of {result.attempted} "
                 f"attempted over all timed passes")

    lines.append("per-layer, sim clock" + ("" if traced else
                 "  (host ledger: run with --trace 1)"))
    for name, unit in PER_LAYER_UNITS.items():
        if name in TRACE_UNITS and not (
                traced or name == "bench.pass_spread"):
            continue
        if name.split(".", 1)[0] in LEDGER_LAYERS and name.endswith(
                (".host_self_s", ".calls")):
            continue  # shown as the ledger table below
        row(name, result.per_layer[name], unit,
            _reference_note(name, result.per_layer[name], references))

    if traced:
        total = sum(result.per_layer[f"{layer}.host_self_s"]
                    for layer in LEDGER_LAYERS)
        lines.append("host ledger (traced pass, under cProfile)")
        lines.append(f"  {'layer':<8} {'self_s':>10} {'share':>7} "
                     f"{'calls':>12}")
        for layer in LEDGER_LAYERS:
            self_s = result.per_layer[f"{layer}.host_self_s"]
            lines.append(
                f"  {layer:<8} {self_s:>10.3f} {self_s / total:>7.3f} "
                f"{int(result.per_layer[f'{layer}.calls']):>12}")
        if result.spans is not None:
            lines.append(
                f"spans: {result.spans['spans']} recorded, "
                f"{result.spans['unfinished']} unfinished; sim-clock "
                f"self time by layer (ms):")
            for layer, self_ms in sorted(
                    result.spans["sim_self_ms_by_layer"].items()):
                lines.append(f"  {layer:<8} {self_ms:>16.3f}")
    return "\n".join(lines)
