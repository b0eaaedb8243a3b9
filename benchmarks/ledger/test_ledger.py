"""Self-tests of the benchmark definition and harness (smoke size).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py``
— outside tier-1 on purpose (``testpaths`` covers ``tests/`` only).
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.ledger.check import compare, load_benchmark_json
from benchmarks.ledger.cli import SMOKE_SCALE
from benchmarks.ledger.protocol import (
    END_TO_END_UNITS, HIGHER_IS_BETTER, PER_LAYER_UNITS, run_workload)
from benchmarks.ledger.trace import LEDGER_LAYERS
from benchmarks.ledger.workloads import WORKLOADS, capture_tpcc

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    return load_benchmark_json()


def smoke(workload: str, seed: int = 5, **kwargs):
    return run_workload(workload, seed, seconds=0.0, scale=SMOKE_SCALE,
                        **kwargs)


def test_schema_and_limits(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    assert benchmark_json["paths"] == ["benchmarks/ledger"]
    assert benchmark_json["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in benchmark_json[group]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark_json[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in benchmark_json["end_to_end"])}]


def test_benchmark_json_matches_the_harness(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    for group, units in (("end_to_end", END_TO_END_UNITS),
                         ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: (m["unit"], m["better"])
                  for m in benchmark_json[group]}
        expected = {name: (unit, "higher" if name in HIGHER_IS_BETTER
                           else "lower")
                    for name, unit in units.items()}
        assert listed == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run(workload, tmp_path):
    result = smoke(workload, trace=True, out_dir=str(tmp_path))
    assert result.correct, result.problems
    assert result.failed == 0
    assert all(value != 0 for value in result.end_to_end.values())
    assert set(result.per_layer) == set(PER_LAYER_UNITS)
    # The traced line and the untraced line carry exactly their lists.
    for trace, units in ((False, END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
        line = json.loads(result.contract_line(trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == list(units)
    total = sum(result.per_layer[f"{layer}.host_self_s"]
                for layer in LEDGER_LAYERS)
    shares = [result.per_layer[f"{layer}.host_self_s"] / total
              for layer in LEDGER_LAYERS]
    assert abs(sum(shares) - 1.0) < 0.01
    assert result.per_layer["sim.events_dispatched"] > 0
    assert result.per_layer["bench.trace_overhead"] > 1.0
    spans = [json.loads(line)
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == result.spans["spans"] > 0
    ids = {span["span_id"] for span in spans}
    assert all(span["parent_id"] in ids for span in spans
               if span["parent_id"] is not None)
    if workload == "tpcc-trail":
        assert result.per_layer["db.calls"] > 0
        assert any(span["parent_id"] is not None for span in spans)
    else:
        assert result.per_layer["db.calls"] == 0
        assert result.per_layer["tpcc.calls"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inject_loss_is_caught(workload):
    result = smoke(workload, inject_loss=True)
    assert not result.correct
    assert result.per_layer["failed_op_share"] > 0


def test_seed_changes_inputs_not_the_metric_set(benchmark_json):
    first, again, other = (smoke("crash-recover", seed=5),
                           smoke("crash-recover", seed=5),
                           smoke("crash-recover", seed=6))
    bounds = {m["name"]: m for m in benchmark_json["end_to_end"]}
    as_json = [{"end_to_end": r.end_to_end, "per_layer": r.per_layer}
               for r in (first, again, other)]
    sim_problems = [p for p in compare(as_json[0], as_json[1], bounds)
                    if "must be equal" in p]
    assert not sim_problems
    assert set(other.per_layer) == set(first.per_layer)
    assert other.end_to_end["sim_ops_per_s"] != \
        first.end_to_end["sim_ops_per_s"]


def test_captured_tpcc_run_equals_run_tpcc():
    from repro.tpcc.run import TpccRunConfig, run_tpcc

    config = TpccRunConfig(system="trail", transactions=200, concurrency=4,
                           warehouses=1, seed=11)
    plain = run_tpcc(config)
    with capture_tpcc() as capture:
        captured = run_tpcc(config)
    assert captured.tpmc == plain.tpmc == capture.metrics.tpmc
    assert capture.engine.wal.stats.flushes == plain.group_commits
    assert capture.instance.driver.stats.physical_log_writes == \
        plain.log_physical_writes
