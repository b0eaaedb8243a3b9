PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench perf-smoke perf-ab ledger-smoke ledger-test ledger-check profile lint trailsan units iso analyzers test-checked typecheck trailmc mc

# Tier-1: the full unit/property/integration suite (includes perf-smoke).
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

# Fast perf sanity (< 30 s, part of tier-1): scenarios run, schema holds.
perf-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/perf -q

# The layered benchmark's own checks (BENCHMARK.json,
# benchmarks/ledger/README.md): its unit tests, then every workload
# run twice at 1/50 size in fresh processes — sim-clock metrics must
# agree exactly, host-clock ones within their bounds (~15 s together).
# At that size the host-clock half is noise-limited: a lone
# host_ops_per_s DISAGREE (about 1 run in 3 on the dev sandbox) means
# re-run, a sim-clock DISAGREE means a determinism bug.
# CI runs the two halves as separate steps so that only the host-clock
# comparison is non-blocking.
ledger-smoke: ledger-test ledger-check

ledger-test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ledger/test_ledger.py -q

ledger-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.ledger check --smoke

# Repo-native static analysis (docs/STATIC_ANALYSIS.md): determinism,
# error-taxonomy, and on-disk-format lint rules — over src/, tests/,
# and the analysis tools themselves (self-lint).
lint:
	PYTHONPATH=tools $(PYTHON) -m trailint src tests tools

# Yield-point atomicity & lock-discipline analysis of the cooperative
# sim (docs/STATIC_ANALYSIS.md): guarded_by / atomic_group annotations,
# TSN001-TSN005, over src/ and the tools tree (self-analysis).
trailsan:
	PYTHONPATH=tools $(PYTHON) -m trailsan src tools

# Dimension & address-space flow analysis (docs/STATIC_ANALYSIS.md):
# bytes vs sectors, ms vs s, log-disk vs data-disk LBAs, TUN001-TUN008,
# seeded from repro.units annotations — over src/ and the tools tree.
units:
	$(PYTHON) -m tools.trailunits src tools

# Cross-instance isolation analysis (docs/STATIC_ANALYSIS.md): module
# mutables, context escapes, ambient singletons, TIS001-TIS005 plus
# TIS000 annotation hygiene — over src/ and the tools tree.
iso:
	$(PYTHON) -m tools.trailiso src tools

# Static schedule-interference analysis (docs/STATIC_ANALYSIS.md):
# per-yield-segment footprints over annotated shared state and the
# segment independence relation consumed by `make mc`.  An extraction
# pass, not a lint — it has no findings and never fails a clean tree.
trailmc:
	$(PYTHON) -m tools.trailmc src

# All four repo-native lint passes over ONE shared parse
# (tools/analysis/driver.py): identical findings to the individual
# targets above, but each file is read, parsed and tokenized once and
# the report carries per-tool wall-clock plus the reparse time the
# single pass saved.
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

# Tier-1 suite with every runtime twin switched on at once (they
# compose): TRAILSAN=1 value-checks atomic groups at every context
# switch, TRAILISO=1 widens the interleaved multi-instance matrix
# (tests/integration/test_two_instances), TRAILHOT=1 measures the
# per-scenario Python-call and peak-byte budgets against
# benchmarks/perf/BENCH_alloc.json.
test-checked:
	TRAILSAN=1 TRAILISO=1 TRAILHOT=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

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
