# Local mirror of .github/workflows/ci.yml.  `make ci` runs the gate job's
# blocking steps except the bench smoke cells: lint, format, clippy, release
# build, tests, docs, bench compile, every example and the perfbench
# workloads.  `make bench-smoke`, `MICRO_QUICK=1 make bench-topology` and
# `MICRO_QUICK=1 make bench-batch` run the smoke cells; `make bench-diff` is
# the non-blocking drift report.

CARGO ?= cargo

.PHONY: ci ci-lint fmt clippy build test doc bench-check bench-smoke bench-json bench-diff bench-layout bench-topology bench-batch perfbench perf-ab examples miri loom loom-mutant fault fault-storm

ci: ci-lint fmt clippy build test doc bench-check examples perfbench

# Every workflow file must load as YAML: a plain scalar that contains ": "
# or ends in ":" (a `run:` line ending in `module::`, say) is a parse
# error that GitHub reports only as a broken workflow.
ci-lint:
	python3 -c 'import sys, yaml; [yaml.safe_load(open(f)) for f in sys.argv[1:]]' \
		$(wildcard .github/workflows/*)

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

bench-check:
	$(CARGO) bench --no-run

# Run every bench binary on a minimal cell so the bench wiring (workload
# construction, algorithm set, table rendering) is *executed*, not just
# compiled.  Finishes in well under a minute.  Honors BENCH_JSON (exported by
# bench-diff) to also emit machine-readable records.
bench-smoke:
	FIG2_THREADS=2 FIG2_OPS=2000 FIG2_EMULATED=4 FIG2_SHARDS=2 FIG2_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig2_panels
	SWEEP_THREADS=2 SWEEP_OPS=2000 SWEEP_EMULATED=4 \
		SWEEP_COLLECT_N=256 SWEEP_COLLECT_ITERS=50 \
		$(CARGO) bench --bench sweeps
	FIG3_N=64 FIG3_OPS=4000 FIG3_SNAPSHOT=1000 FIG3_SHARDS=2 FIG3_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig3_healing

# The reference cells behind the committed baseline table: the same shape as
# bench-smoke but with enough operations per cell that throughput is stable
# enough to diff (the smoke cells are far too small for that).  The caller
# sets BENCH_JSON.
# The topology storm runs as its own sweeps invocation because it needs a
# different shape from the core sweeps: a >=8-thread contended Get storm at
# 90% prefill and space factor 1.5, with enough ops per thread that every
# thread is descheduled mid-run and the threads genuinely overlap (shorter
# runs complete within one timeslice on a loaded box and flatter the flat
# layout).  g=16 is omitted: 1024 shards of 16 names runs the storm an order
# of magnitude slower, and the small-group end is covered at smoke size by
# bench-topology.
bench-json:
	BENCH_REPEAT=5 FIG2_THREADS=2 FIG2_OPS=50000 FIG2_EMULATED=8 FIG2_SHARDS=2 FIG2_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig2_panels
	BENCH_REPEAT=5 SWEEP_ONLY=core SWEEP_THREADS=2 SWEEP_OPS=50000 SWEEP_EMULATED=8 \
		$(CARGO) bench --bench sweeps
	BENCH_REPEAT=3 SWEEP_ONLY=topology SWEEP_THREADS=256 SWEEP_TOPOLOGY_EMULATED=64 \
		SWEEP_TOPOLOGY_OPS=400000 SWEEP_TOPOLOGY_GROUPS=0,64,256 \
		$(CARGO) bench --bench sweeps
	FIG3_N=256 FIG3_OPS=32000 FIG3_SNAPSHOT=4000 FIG3_SHARDS=2 FIG3_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig3_healing
	BENCH_REPEAT=5 SWEEP_ONLY=batch SWEEP_BATCH_K=16 \
		$(CARGO) bench --bench sweeps

# The slot-layout ablation in isolation: the sweeps bench at reference-cell
# sizes, which prints the Get-side layout table (word-per-slot / packed at
# the sweep thread count and at >=8 threads), the Collect-latency table with
# the scalar-walk reference row, and the Free->Get hint micro.  Set
# BENCH_JSON to capture records.
bench-layout:
	BENCH_REPEAT=5 SWEEP_ONLY=core SWEEP_THREADS=2 SWEEP_OPS=50000 SWEEP_EMULATED=8 \
		$(CARGO) bench --bench sweeps

# The batched-ops micro in isolation: get_many/free_many at SWEEP_BATCH_K
# (default 16) against the equivalent k-singleton loops, per slot layout.
# This is the recipe behind the committed batched-vs-singleton records
# (sweeps/batch/... keys, emitted by bench-json at BENCH_REPEAT=5); set
# BENCH_JSON to capture records.  Shape knobs: SWEEP_BATCH_K / _N / _ROUNDS
# (see benches/sweeps.rs).
bench-batch:
	BENCH_REPEAT=5 SWEEP_ONLY=batch $(CARGO) bench --bench sweeps

# The hierarchical-composition storm in isolation: shard-group scaling of the
# elastic-of-sharded array and the packed-vs-word false-sharing tax under a
# >=8-thread contended Get storm.  This is the recipe behind the committed
# DEFAULT_SHARD_GROUP and shrink-watermark defaults (at the bench-json shape
# above); `MICRO_QUICK=1 make bench-topology` shrinks it to smoke size for
# CI.  Shape knobs: SWEEP_TOPOLOGY_EMULATED / _OPS / _PREFILL / _SPACE /
# _GROUPS (see benches/sweeps.rs).
bench-topology:
	SWEEP_ONLY=topology $(CARGO) bench --bench sweeps

# Regression check: rerun the reference cells with JSON output and diff them
# against the committed table, flagging >20% throughput or worst-case drift
# (exit 1 on drift; CI runs this as a non-blocking step so elastic-path
# perf drift is visible per-PR without gating on machine-specific numbers).  Throughput baselines are machine-specific — regenerate
# with `rm bench/baselines/smoke.json && BENCH_JSON=$(CURDIR)/bench/baselines/smoke.json make bench-json`
# on the reference machine.  Tune with BENCH_DIFF_TOLERANCE=<fraction>.
bench-diff:
	rm -f target/bench-current.json
	BENCH_JSON=$(CURDIR)/target/bench-current.json $(MAKE) bench-json
	$(CARGO) run -q --release -p la_bench --bin bench_diff -- \
		bench/baselines target/bench-current.json

# The repository benchmark (BENCHMARK.json, perfbench/README.md) at 5 s per
# workload: builds perfbench and runs churn, reclaim and bursty once each.
# Fails when a run exits non-zero or prints "correct": false.  The timings
# are printed, not gated — 5 s on a shared machine is too short to judge
# them; the 36 s runs BENCHMARK.json declares are the performance record.
perfbench:
	@set -e; for w in churn reclaim bursty; do \
		echo "perfbench: $$w"; \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 5 --trace 0); \
		echo "$$out" | tail -n 1; \
		if echo "$$out" | grep -q '"correct": false'; then \
			echo "perfbench: $$w failed a correctness check"; exit 1; \
		fi; \
	done

# A/B of two committed revisions on the repository benchmark; the method is
# documented in tools/perf_ab.py.  AB_BASE, AB_WORKLOAD, AB_PAIRS and AB_SEED
# have no default (pick a seed not used during development); AB_CHANGE
# defaults to HEAD, AB_SECONDS to the declared 36 s and AB_TRACE to 0.
#   make perf-ab AB_BASE=HEAD~1 AB_WORKLOAD=bursty AB_PAIRS=10 AB_SEED=2101
AB_CHANGE ?= HEAD
AB_SECONDS ?= 36
AB_TRACE ?= 0
perf-ab:
	$(if $(and $(AB_BASE),$(AB_WORKLOAD),$(AB_PAIRS),$(AB_SEED)),,$(error perf-ab needs AB_BASE AB_WORKLOAD AB_PAIRS and AB_SEED))
	python3 tools/perf_ab.py --base $(AB_BASE) --change $(AB_CHANGE) \
		--workload $(AB_WORKLOAD) --pairs $(AB_PAIRS) --seconds $(AB_SECONDS) \
		--seed $(AB_SEED) --trace $(AB_TRACE)

# Model-checked interleavings of the innermost slot representations and the
# layout-conformance seam (the suites shrink their case counts under
# cfg(miri)); CI's miri job runs this target.  Needs the nightly toolchain
# with the miri component:
#   rustup toolchain install nightly --component miri
# In order: the slot/packed/probe-core/hint/shrink unit tests; the
# epoch-chain unit tests (the lock-free chain's Arc provenance discipline —
# head CAS, raw push/remove bookkeeping, garbage stack — under strict
# provenance; the storm tests shrink their thread/round counts under
# cfg(miri)); the layout-conformance and free-hint suites; the Treiber-stack
# reclamation client (push/pop retire nodes through the domain while racing
# threads still dereference them — the canonical use-after-free surface);
# the flat-combining engine (the combiner-lock publication-list protocol,
# including the batched registration seam its sessions claim slots through).
miri:
	$(CARGO) +nightly miri test -p levelarray --lib -- slot:: packed:: probe_core:: hint:: shrink
	$(CARGO) +nightly miri test -p levelarray --lib -- epoch_chain::
	$(CARGO) +nightly miri test -p levelarray --test layout_conformance
	$(CARGO) +nightly miri test -p levelarray --test free_hint
	$(CARGO) +nightly miri test -p la_reclaim --lib -- stack::
	$(CARGO) +nightly miri test -p la_flatcombine --lib -- engine::

# The loom-style model checker over the elastic epoch chain (see
# docs/TESTING.md).  `--cfg la_loom` reroutes every atomic in the lock-free
# core through the vendored `vendor/loom` runtime, which exhaustively
# explores thread interleavings — and the stale-read branches the C11 model
# allows for non-SeqCst loads — within a preemption bound.  A dedicated
# target dir keeps the RUSTFLAGS-keyed build cache away from the normal one.
# Knobs: LOOM_MAX_PREEMPTIONS (default 2), LOOM_MAX_DURATION_SECS (per-model
# time budget, default 60), LOOM_MAX_EXECUTIONS, LOOM_MAX_STEPS.  The last
# line runs the model checker's own litmus self-tests.
loom:
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) test -p levelarray --test loom_chain -- --test-threads=1 --nocapture
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) test -p la_reclaim --test loom_domain -- --test-threads=1
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) build -p la_reclaim -p la_flatcombine
	CARGO_TARGET_DIR=target/loom $(CARGO) test -p loom --test litmus -q

# Crash-robustness gate (see docs/ROBUSTNESS.md).  `--cfg la_fault` turns
# the `la_fault::fail_point!` sites threaded through probe_core, packed,
# the epoch chain, the elastic array, reclamation and the combiner
# hand-off live; the full workspace suite then runs with the sites
# compiled in but *inert* (no plan armed — proving the instrumentation
# itself changes no behavior), followed by the panic_safety storms, which
# arm seeded plans per test.  The storm binary is serialized (`--test-threads=1`): la_fault's
# plan is process-global.  A dedicated target dir keeps the RUSTFLAGS-keyed
# cache away from the normal build.
fault:
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault \
		$(CARGO) test -q
	RUSTFLAGS="--cfg la_loom --cfg la_fault" CARGO_TARGET_DIR=target/loom_fault \
		$(CARGO) build -p levelarray -p la_reclaim -p la_flatcombine

# The seeded crash storm in isolation, plus the armed bench cell
# (sweeps/fault/storm=armed).  Re-seed with LA_FAULT_SEED=<u64>; the
# committed guards-only baseline cell comes from the *normal* build
# (`SWEEP_ONLY=fault make bench-json`-style run without the cfg).
fault-storm:
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault \
		$(CARGO) test --test panic_safety -- --test-threads=1 --nocapture
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault SWEEP_ONLY=fault \
		$(CARGO) bench --bench sweeps

# Mutation soundness check: rebuild with the seeded ordering bug
# (`la_loom_weak_seal` relaxes the retirement seal CAS) and require the
# model suite to FAIL — a green mutant means the models lost their teeth.
loom-mutant:
	! RUSTFLAGS="--cfg la_loom --cfg la_loom_weak_seal" CARGO_TARGET_DIR=target/loom_mutant \
		$(CARGO) test -p levelarray --test loom_chain seal -- --test-threads=1

examples:
	$(CARGO) run -q --release --example quickstart
	$(CARGO) run -q --release --example healing
	$(CARGO) run -q --release --example sharded
	$(CARGO) run -q --release --example elastic
	$(CARGO) run -q --release --example hierarchical
	$(CARGO) run -q --release --example coordination
	$(CARGO) run -q --release --example flat_combining
	$(CARGO) run -q --release --example memory_reclamation
