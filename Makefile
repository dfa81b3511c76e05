PYTHON ?= python
PYTHONPATH := src

.PHONY: test fences traffic test-hashseeds bench figures mutants repin profile trace-fig17

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The source fences alone (a few seconds): one owner per shared decision,
# one way to wait, no unused import, nothing outside the standard library
# imported, no host clock under src/repro.
fences:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/test_single_owner.py tests/test_host_clock.py

# A caller is traffic, and so is an option (~1.5 min on 2 CPUs): runs
# the bench workloads, the figure suite, the scripts and the examples
# once under one recorder of function entry and option values, and fails
# on a function under src/repro that none of them enters, or an option
# they only ever run with one value, that tests/audit_traffic.py's
# ALLOW / ALLOW_OPTIONS does not excuse, or on a stale entry.  Writes
# both tables to traffic_table.txt (git-ignored); leaves
# bench_results.txt as it found it.
traffic:
	$(PYTHON) tests/audit_traffic.py

# Tier-1 under the three hash seeds of CI's `test` matrix: the pins of
# tests/fixtures/pins.json and figure headlines must not depend on hash
# order.
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

# Would the oracles notice a wrong system?  Runs the library scenarios
# under each seeded bug of tests/mutants.py and prints the kill matrix
# (oracle / crash / pin columns); exits 1, printing the rows that
# differ, unless it prints tests/fixtures/kill_matrix.md byte for byte.
mutants:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/mutants.py

# After an intended behaviour change: rewrites tests/fixtures/pins.json
# (each pinned run's per-track journal digests) and
# tests/fixtures/kill_matrix.md from this tree, and prints the runs
# grouped by the tracks that moved, the table a commit quotes.
repin:
	PYTHONHASHSEED=0 PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/mutants.py --repin

profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/profile_solver.py --factor 5 --point 2

# Traced Fig 17 (SM arm, smoke scale): writes a Perfetto-loadable
# Chrome trace + raw JSONL journal and hard-fails on any TraceChecker
# invariant violation.  Open trace_fig17.json at https://ui.perfetto.dev
trace-fig17:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_experiments.py --smoke \
		--trace-figure fig17:sm --trace trace_fig17.json \
		--journal trace_fig17.jsonl --check-trace
