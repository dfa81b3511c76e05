PYTHON ?= python
PYTHONPATH := src

.PHONY: test fences traffic test-hashseeds bench figures fuzz-smoke profile trace-fig17

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The source fences alone (a few seconds): one owner per shared decision,
# one way to wait, no unused import, nothing outside the standard library
# imported, no host clock under src/repro.
fences:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/test_single_owner.py tests/test_host_clock.py

# A caller is traffic (~2 min): runs the bench workloads, the figure
# suite, the scripts and the examples under a function-entry recorder
# and fails on a function under src/repro that none of them enters and
# tests/audit_traffic.py's allowlist does not excuse, or on a stale
# allowlist entry.  Writes traffic_table.txt (git-ignored); leaves
# bench_results.txt as it found it.
traffic:
	$(PYTHON) tests/audit_traffic.py

# Tier-1 under the three hash seeds of CI's `test` matrix: golden traces,
# corpus digests and figure headlines must not depend on hash order.
test-hashseeds:
	for seed in 0 1 7; do \
		PYTHONHASHSEED=$$seed PYTHONPATH=$(PYTHONPATH) \
			$(PYTHON) -m pytest -x -q || exit 1; \
	done

# Speed: how fast the simulator runs and where the time goes (seven
# workloads, host time with spread, per-layer split; bench/README.md).
bench:
	python3 bench/run.py

# Shape: every paper figure on the simulated clock, asserted and written
# to bench_results.txt (EXPERIMENTS.md).
figures:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -q

# Coverage-guided chaos fuzzing smoke: a fixed-seed, fixed-budget search
# (budget counted in runs, so the search is deterministic), run TWICE by
# --determinism-check — the corpus coverage-key set and every per-spec
# journal digest must be bit-identical across the two searches.  Saves
# the corpus and writes the coverage summary to fuzz_report.json (both
# git-ignored).  Append extra flags via FUZZ_ARGS (e.g. `--budget 1000
# --processes 4`).
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_fuzz.py \
		--budget 300 --seed 42 --determinism-check \
		--corpus-dir fuzz_corpus --output fuzz_report.json $(FUZZ_ARGS)

profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/profile_solver.py --factor 5 --point 2

# Traced Fig 17 (SM arm, smoke scale): writes a Perfetto-loadable
# Chrome trace + raw JSONL journal and hard-fails on any TraceChecker
# invariant violation.  Open trace_fig17.json at https://ui.perfetto.dev
trace-fig17:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_experiments.py --smoke \
		--trace-figure fig17:sm --trace trace_fig17.json \
		--journal trace_fig17.jsonl --check-trace
