PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-stacked test-async test-concurrent test-capture test-paper lint bench bench-smoke

test: lint
	$(PYTHON) -m pytest -x -q

# Skip the fork-based parallel-executor tests (slowest part of the suite).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not parallel"

# Just the stacked-client replay executor and its compiler.
test-stacked:
	$(PYTHON) -m pytest -x -q -m stacked

# Just the virtual-clock async engine and lazy-population layer.
test-async:
	$(PYTHON) -m pytest -x -q -m async

# Just the crash-safety suite: racing saves, SIGKILLed workers, stale
# claims, parallel-vs-serial store identity.
test-concurrent:
	$(PYTHON) -m pytest -x -q -m concurrent

# Just the capture-engine optimizer: arena planner, dead-op elimination,
# optimizer-on/off bitwise differentials, and the build cache.
test-capture:
	$(PYTHON) -m pytest -x -q -m capture

# The paper tier: every table/figure bench in benchmarks/, each asserting
# the shape of its finding (minutes, not part of `make test`). Output goes
# to PAPER_OUT rather than over the golden files in benchmarks/results/;
# the diff against them is printed but does not fail the target.
# `make test-paper PAPER_FLAGS=--no-compile` runs every step eagerly.
PAPER_OUT ?= .paper-results
test-paper:
	$(PYTHON) -m pytest benchmarks -p no:cacheprovider --results-dir $(PAPER_OUT) $(PAPER_FLAGS)
	-diff -ru benchmarks/results $(PAPER_OUT)

# Uses ruff or pyflakes when installed; otherwise a stdlib AST fallback.
lint:
	$(PYTHON) tools/lint.py src tests

bench:
	$(PYTHON) -m repro.experiments.bench --output BENCH_core.json

# Seconds-scale sanity pass over every bench section; deliberately not
# part of `make test` — it proves the benchmarks run, not the numbers.
# Also guards the hot-path wall times against the committed baseline.
bench-smoke:
	$(PYTHON) -m repro.experiments.bench --smoke --output BENCH_smoke.json --check-baseline BENCH_core.json
