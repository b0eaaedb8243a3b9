"""The layered two-clock benchmark (``BENCHMARK.json`` at the repo root).

Four closed-loop workloads drive the Trail stack through its public
constructors only; every number is either **sim-clock** (prefix
``sim_``: the modelled design, bit-deterministic for a seed) or
**host-clock** (the Python engine's cost on this machine), never a mix.
See README.md in this directory for the workload table, the metric
list, the interaction table and the run protocol.

Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — the contract command named in ``BENCHMARK.json``;
* ``PYTHONPATH=src python -m benchmarks.ledger run|check`` — the same
  run with a readable report, and the two-set self-agreement check.
"""
