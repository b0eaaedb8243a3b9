PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench perf-ab ledger-smoke ledger-test ledger-check profile analyzers typecheck trailmc mc

# Tier-1: the full unit/property/integration suite, in its one
# configuration: tests/conftest.py sets TRAILSAN=1 for the session, so
# every simulation is value-checked at every context switch; the
# interleaved multi-instance matrix, the per-scenario Python-call
# and peak-byte budgets (benchmarks/perf/BENCH_alloc.json, measured
# with the sanitizer off) and the `make analyzers` sweep run in it too.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Regenerate every paper table/figure with shape assertions.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -s

# Interleaved A/B of a reference commit against the working tree on the
# layered benchmark (BENCHMARK.json): >= 10 pairs alternating which side
# runs first, every pair printed, medians + quartiles per side, and the
# gain rule (>= 9/10 wins and median gap > REF's quartile distance),
# applied to METRIC: any end_to_end metric of BENCHMARK.json (another
# name is refused before anything is measured).
# Usage: make perf-ab REF=<sha> [WORKLOAD=crash-recover] [PAIRS=10] [SEED=7] [METRIC=host_ops_per_s]
#   e.g. make perf-ab REF=<sha> WORKLOAD=burst-rw METRIC=peak_rss_mb
PAIRS ?= 10
SEED ?= 7
METRIC ?= host_ops_per_s
perf-ab:
	@test -n "$(REF)" || { echo "usage: make perf-ab REF=<sha> [WORKLOAD=<name>] [PAIRS=10] [SEED=7] [METRIC=host_ops_per_s]"; exit 2; }
	$(PYTHON) benchmarks/perf_ab.py --ref $(REF) --pairs $(PAIRS) \
		--seed $(SEED) --metric $(METRIC) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# The layered benchmark's own checks (BENCHMARK.json,
# benchmarks/ledger/README.md): its unit tests, then every workload
# run twice at 1/50 size in fresh processes — sim-clock metrics must
# agree exactly, host-clock ones within their bounds (~15 s together).
# At that size the host-clock half is noise-limited: a lone
# host_ops_per_s DISAGREE (about 1 run in 3 on the dev sandbox) means
# re-run, a sim-clock DISAGREE means a determinism bug.
# CI runs the two halves as separate steps so that only the host-clock
# comparison of check --smoke is forgiven.
ledger-smoke: ledger-test ledger-check

ledger-test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ledger/test_ledger.py -q

ledger-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.ledger check --smoke

# Static schedule-interference analysis (docs/STATIC_ANALYSIS.md):
# per-yield-segment footprints over annotated shared state and the
# segment independence relation consumed by `make mc`.  An extraction
# pass, not a lint — it has no findings and never fails a clean tree.
trailmc:
	$(PYTHON) -m tools.trailmc src

# The four repo-native lint passes (docs/STATIC_ANALYSIS.md: trailint,
# trailsan, trailunits, trailiso) over ONE shared parse, each over its
# own scope; the report carries per-tool findings, suppressions and
# wall-clock.  `python -m tools.analysis <file>` analyzes a named file
# (a fixture, say) with every rule of every tool.
analyzers:
	$(PYTHON) -m tools.analysis

# Bounded schedule model checking: enumerate same-time dispatch orders
# and cross-instance interleavings (preemption bound 3, 250 schedules
# per scenario), assert byte-identical digests + sanitizer invariants
# on every schedule, then prove the checker still has teeth by
# requiring it to catch a reintroduced historical tail-chain tear.
mc:
	PYTHONPATH=$(PYTHONPATH):. $(PYTHON) -m repro mc
	PYTHONPATH=$(PYTHONPATH):. $(PYTHON) -m repro mc crash-recovery \
		--mutate tail-chain-tear --budget 5

# Strict typing over the paper-critical packages (mypy.ini).  mypy is a
# CI dependency, not a vendored one: when it is absent locally the
# target says so and succeeds; CI installs it and the job is blocking.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini \
			-p repro.core -p repro.disk -p repro.sim -p repro.faults \
			-p repro.fs -p repro.raid; \
	else \
		echo "typecheck: mypy not installed; skipping (CI runs it)"; \
	fi

# Usage: make profile SCENARIO=kernel-churn
SCENARIO ?= kernel-churn
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro profile $(SCENARIO)
