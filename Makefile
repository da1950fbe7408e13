# Convenience targets for the Caldera reproduction.

PYTHON ?= python

.PHONY: install lint test test-fast bench bench-storage bench-streams \
	bench-fig8b bench-fig11b bench-planner perf-smoke crash-sweep fsck \
	figures figures-full examples loc clean

lint:
	ruff check src tests benchmarks examples

install:
	$(PYTHON) -m pip install -e ".[dev]"

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		-o python_files="test_*.py bench_*.py"

bench-storage:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_storage_micro

# Streams/access-method benchmarks: Fig 4 signal, Fig 8a layout costs,
# and the Reg kernel shootout. Each emits a run manifest; the fig8a
# logical-read counters are then diffed against the committed baseline
# (deterministic counters only — wall times never fail the guard).
bench-streams:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_fig4_signal
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_fig8a_layouts
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_reg_kernel
	PYTHONPATH=src $(PYTHON) -m repro.obs.report \
		benchmarks/baselines/fig8a.manifest.json \
		benchmarks/results/fig8a.manifest.json --fail-on-change

# Fig 8b variable-length benchmark: MC index vs naive scan over gap
# length and alpha. Ends by diffing the deterministic cost counters
# (logical reads, MC lookups/pieces) against the committed baseline —
# wall times never fail the guard.
bench-fig8b:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_fig8b_variable
	PYTHONPATH=src $(PYTHON) -m repro.obs.report \
		benchmarks/baselines/fig8b.manifest.json \
		benchmarks/results/fig8b.manifest.json --fail-on-change

# Fig 11b MC storage guard: index entries and index/stream file bytes
# per (stream length, alpha), diffed against the committed baseline.
# The MC build and the record codec must leave every count unchanged.
bench-fig11b:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_fig11b_mc_storage
	PYTHONPATH=src $(PYTHON) -m repro.obs.report \
		benchmarks/baselines/fig11b.manifest.json \
		benchmarks/results/fig11b.manifest.json --fail-on-change

# Planner regression guard: perfbench-shaped query mixes at densities
# 1.0 and 0.05 under auto and under every legal candidate pinned. Ends
# by diffing the deterministic counters (choice, predicted and actual
# logical reads per op) against the committed baseline; CPU times are
# reported only and never fail the guard.
bench-planner:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_planner
	PYTHONPATH=src $(PYTHON) -m repro.obs.report \
		benchmarks/baselines/planner.manifest.json \
		benchmarks/results/planner.manifest.json --fail-on-change

# Oracle-checked smoke run of the three perfbench workloads (2 s each).
# perfbench/run.py always exits 0, so the gate reads its last line, a
# JSON object: it must say "correct": true and "failed": 0.
PERF_SMOKE_CHECK = import json, sys; r = json.loads(sys.stdin.read()); \
	sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)

perf-smoke:
	@for w in scan_dense index_sparse archive; do \
		echo "== perfbench $$w"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 \
			--seconds 2 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c '$(PERF_SMOKE_CHECK)' \
			|| { echo "perf-smoke: $$w is not correct"; exit 1; }; \
	done

# Deterministic crash-point sweep: every single-fault schedule must
# recover to a committed state with a clean fsck. Bounded (~30s);
# exits non-zero on any recovery or verification failure.
crash-sweep:
	PYTHONPATH=src $(PYTHON) -m benchmarks.crash_sweep

# Build two small databases and verify each with the CLI deep checker:
# a raw 5,000-key tree, and a synthetic stream archived in all three
# layouts with BT_C, BT_P and MC (real stream and index trees, checked
# for strictly increasing keys among the rest).
fsck:
	@PYTHONPATH=src $(PYTHON) -c "\
	import tempfile; \
	from repro.core import Caldera; \
	from repro.storage import StorageEnvironment; \
	from repro.streams import synthetic_stream; \
	d = tempfile.mkdtemp(prefix='fsck_smoke_'); \
	env = StorageEnvironment(d + '/raw', page_size=512); \
	env.open_tree('t').bulk_load((b'k%05d' % i, b'v' * (i % 80)) for i in range(5000)); \
	env.close(); \
	db = Caldera(d + '/streams', page_size=1024); \
	[db.archive(synthetic_stream('syn_' + lo, num_snippets=8, density=0.5, seed=1), layout=lo, mc_alpha=2) for lo in ('separated', 'cell', 'packed')]; \
	db.close(); \
	print(d)" > .fsck_smoke_dir
	PYTHONPATH=src $(PYTHON) -m repro fsck "$$(cat .fsck_smoke_dir)/raw"
	PYTHONPATH=src $(PYTHON) -m repro fsck "$$(cat .fsck_smoke_dir)/streams"
	@rm -rf "$$(cat .fsck_smoke_dir)" .fsck_smoke_dir

figures:
	PYTHONPATH=src $(PYTHON) -m benchmarks.run_all

figures-full:
	REPRO_BENCH_FULL=1 PYTHONPATH=src $(PYTHON) -m benchmarks.run_all

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		PYTHONPATH=src $(PYTHON) $$ex || exit 1; \
	done

# Size of the library source: the lines of the .py files of each
# src/repro package and of src/repro's own modules, then the total of
# every .py file under src/ as the last line.
loc:
	@for d in src/repro/*/; do \
		printf '%6d %s\n' "$$(find $$d -name '*.py' | xargs cat | wc -l)" \
			"$${d%/}"; \
	done
	@printf '%6d %s\n' "$$(cat src/repro/*.py | wc -l)" "src/repro/*.py"
	@find src -name '*.py' | xargs cat | wc -l

clean:
	rm -rf benchmarks/.cache benchmarks/.cache-full .pytest_cache \
		.hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
