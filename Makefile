PYTHON ?= python
PYTHONPATH := src

.PHONY: test ci bench perf-ab profile analyzers typecheck mc corpus

# Tier-1: the full unit/property/integration suite, in its one
# configuration: tests/conftest.py sets TRAILSAN=1 for the session, so
# every simulation's atomic groups are value-checked at every context
# switch (the only atomic-group gate; there is no static pass); the
# interleaved multi-instance matrix, the per-scenario Python-call
# and peak-byte budgets (benchmarks/perf/BENCH_alloc.json, measured
# with the sanitizer off), the exact-value tests of the time-scale
# sites `make bench` does not run and the `make analyzers` sweep run
# in it too.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Every CI job at once under make's own -j -k, one log per job in
# CI_LOGS, one verdict line per job.  CI runs each as a matrix entry.
CI_JOBS := test typecheck bench mc corpus
CI_LOGS := ci-logs
ci:
	@rm -rf $(CI_LOGS) && mkdir -p $(CI_LOGS)
	@$(MAKE) --no-print-directory -k -j $(addprefix ci-,$(CI_JOBS))
ci-%:
	@if $(MAKE) --no-print-directory $* > $(CI_LOGS)/$*.log 2>&1; \
	then grep -h "^$*: skipped" $(CI_LOGS)/$*.log || echo "$*: ok"; \
	else echo "$*: FAILED (log: $(CI_LOGS)/$*.log)"; exit 1; fi

# Every paper table/figure at the paper's run lengths: shape assertions,
# each printed table equal to benchmarks/paper_numbers.json, each
# EXPERIMENTS.md block equal to its rendering (re-capturing:
# benchmarks/conftest.py), and the layered benchmark's unit tests.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -s

# Interleaved A/B of a reference commit against the working tree on the
# layered benchmark (BENCHMARK.json): >= 10 pairs alternating which side
# runs first, every pair printed, medians + quartiles per side, and the
# gain rule (>= 9/10 wins and median gap > REF's quartile distance)
# applied to METRIC, any end_to_end metric of BENCHMARK.json.
# Usage: make perf-ab REF=<sha> [WORKLOAD=crash-recover] [PAIRS=10] [SEED=7] [METRIC=host_ops_per_s]
PAIRS ?= 10
SEED ?= 7
METRIC ?= host_ops_per_s
perf-ab:
	@test -n "$(REF)" || { echo "usage: make perf-ab REF=<sha> [WORKLOAD=<name>] [PAIRS=10] [SEED=7] [METRIC=host_ops_per_s]"; exit 2; }
	$(PYTHON) benchmarks/perf_ab.py --ref $(REF) --pairs $(PAIRS) \
		--seed $(SEED) --metric $(METRIC) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# The repo's one lint pass (docs/STATIC_ANALYSIS.md): four rules over
# one `ast` parse of every file under src and tools, one line per
# finding and one verdict line (`time make analyzers` measures it).
# Time scales have no static pass: bench pins every paper millisecond
# exactly, and tier-1 has an exact-value test for each time-scale site
# bench does not run.  `python -m tools.lint <file>` checks a named
# file (a fixture, say) with every rule.
analyzers:
	$(PYTHON) -m tools.lint

# Bounded schedule model checking: enumerate same-time dispatch orders
# and cross-instance interleavings (preemption bound 3, 250 schedules
# per scenario, every schedule under the bound: no pruning) and assert
# byte-identical digests + sanitizer invariants on every schedule.
mc:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro mc

# The bug corpus (docs/evidence/pr29-mutants): each re-seeded historical
# bug against every gate, on the tracked working tree (HEAD if clean).
# Fails if the clean tree trips a gate or a patch trips none or no
# longer applies.
corpus:
	ref=$$(git stash create); \
	$(PYTHON) docs/evidence/pr29-mutants/run_corpus.py --ref $${ref:-HEAD}

# Strict typing over the paper-critical packages (mypy.ini).  mypy is a
# CI dependency, not a vendored one: when it is absent the target (and
# `make ci`) says it skipped; CI installs it and the job is blocking.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini \
			-p repro.core -p repro.disk -p repro.sim -p repro.faults \
			-p repro.fs -p repro.raid; \
	else \
		echo "typecheck: skipped (mypy not installed)"; \
	fi

# Usage: make profile SCENARIO=kernel-churn
SCENARIO ?= kernel-churn
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro profile $(SCENARIO)
