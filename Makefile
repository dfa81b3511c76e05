PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-quick bench-sim bench-request bench-scale bench-fluid bench-skew fuzz-smoke profile trace-fig17

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Seconds-fast regression check: the solver hot-path microbenchmark at a
# small scale point, then the tier-1 test suite.
bench-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_solver_hotpath.py::test_solver_hotpath_quick \
		--benchmark-only -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Full experiment sweep (parallel where cores allow) -> BENCH_sim.json
# with per-figure wall-clock, events/s, and speedups vs the checked-in
# pre-optimization baseline.
bench-sim:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_experiments.py \
		--output BENCH_sim.json --baseline benchmarks/baseline_sim.json

# Request-path microbenchmark: requests/s through router + server on a
# two-region topology (the number DESIGN.md's fast-path section quotes).
bench-request:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_request_path.py

# Control-plane scale sweep (Figs 15/16 regime): shard counts
# {10^4, 10^5, 10^6} x dirty counts x mini-SM pool sizes.  Records
# publish ops/s, delta-vs-full wire bytes, and frontend routes/s into
# BENCH_sim.json's `scale` section.  The 10^6 point takes a few minutes;
# append `--smoke` flags via SCALE_ARGS for a quick pass.
bench-scale:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_scale_bench.py $(SCALE_ARGS)

# Hybrid fluid traffic engine benchmark: event-vs-fluid Fig 18 walls and
# the 10M-user diurnal multi-region scenario.  Records simulated users/s
# and wall-clock into BENCH_sim.json's `fluid` section.  Append `--smoke`
# via FLUID_ARGS for the CI-sized pass.
bench-fluid:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_fluid_bench.py $(FLUID_ARGS)

# Hot-key skew benchmark: SM's load-based solver vs consistent hashing
# vs static sharding under a Zipfian + scatter-gather workload with a
# mid-run hot-set rotation.  Each arm runs twice (bit-identical journal
# digests are a hard gate) and the three-arm comparison lands in
# BENCH_sim.json's `skew` section.  Append `--smoke` via SKEW_ARGS for
# the CI-sized pass.
bench-skew:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_skew_bench.py $(SKEW_ARGS)

# Coverage-guided chaos fuzzing smoke: a fixed-seed, fixed-budget search
# (budget counted in runs, so the search is deterministic), run TWICE by
# --determinism-check — the corpus coverage-key set and every per-spec
# journal digest must be bit-identical across the two searches.  Saves
# the corpus and merges a `fuzz` section into BENCH_sim.json.  Append
# extra flags via FUZZ_ARGS (e.g. `--budget 1000 --processes 4`).
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_fuzz.py \
		--budget 300 --seed 42 --determinism-check \
		--corpus-dir fuzz_corpus --output BENCH_sim.json $(FUZZ_ARGS)

profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/profile_solver.py --factor 5 --point 2

# Traced Fig 17 (SM arm, smoke scale): writes a Perfetto-loadable
# Chrome trace + raw JSONL journal and hard-fails on any TraceChecker
# invariant violation.  Open trace_fig17.json at https://ui.perfetto.dev
trace-fig17:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_experiments.py --smoke \
		--trace-figure fig17:sm --trace trace_fig17.json \
		--journal trace_fig17.jsonl --check-trace
