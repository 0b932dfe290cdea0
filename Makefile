# DrugTree build & verification entry points.
#
# `make check` is the default gate: vet + full test suite + the race
# detector over the packages with concurrent execution paths (the
# parallel query executor and the engine that serves it).

GO ?= go

.PHONY: all build test race race-replication vet vet-compat lint bench bench-smoke bench-check chaos chaos-replica overload torture ingest check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency certificate: differential, cancellation, and stress
# tests under the race detector — the parallel query executor, the
# engine serving it, the scatter-gather shard coordinator (fan-out
# goroutines, mid-gather cancellation, failover), the replica sets
# (WAL shipping, lag-bounded routing, promotion), and the resilience
# layer (sources hammered by concurrent fetchers, health map read
# during sync, mobile sessions).
race:
	$(GO) test -race ./internal/query/... ./internal/core/... \
		./internal/shard/... ./internal/replica/... \
		./internal/source/... ./internal/integrate/... ./internal/mobile/... \
		./internal/admission/...
	$(GO) test -race -run 'TestRunT9|TestRunT12' ./internal/experiments/

vet:
	$(GO) vet ./...

# Vet-driver compatibility: the full eleven-analyzer suite under
# `go vet -vettool`, one invocation per package with cross-package
# facts shipped through the driver's .vetx side files. Exercises a
# different code path than `make lint` (per-package configs, fact
# import/export, facts-only dependency invocations), so both are
# gated.
vet-compat:
	$(GO) build -o bin/drugtree-lint ./cmd/drugtree-lint
	$(GO) vet -vettool=$(CURDIR)/bin/drugtree-lint ./...
	@echo "vet-compat: all analyzers clean under the vet driver"

# Replication-layer race certificate with a wedge watchdog: the
# replica sets and the shard coordinator are the packages where a
# lock-order bug manifests as a silent wedge rather than a failure,
# so the run carries an explicit -timeout — if anything deadlocks,
# the Go test runner panics at the deadline and dumps every
# goroutine's stack, turning a hung CI job into a readable report.
race-replication:
	$(GO) test -race -count=1 -timeout=180s ./internal/replica/... ./internal/shard/...

# Static-analysis gate: go vet, then the drugtree analyzer suite
# (clockcheck, ctxcheck, fscheck, lockcheck, snapcheck, spawncheck,
# wrapcheck, plus lockorder, errcmp, atomiccheck, sendcheck for the
# distributed layer — see DESIGN.md "Static-analysis gates"). staticcheck runs when a
# pinned binary is available; the container image does not bake one in
# and the build is offline, so it is gated rather than required.
# Baseline: 0 findings over all eleven analyzers, suppressions
# ctxcheck 1/1 (mobile/server.go async prefetch root) and lockcheck
# 3/3 (store/db.go checkpoint fsync under db.mu, WAL truncation fsync,
# group-commit fsync under syncMu).
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2024.1.1

lint: vet
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		echo "staticcheck ($$($(STATICCHECK) -version 2>/dev/null || echo unpinned), want $(STATICCHECK_VERSION))"; \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (pin $(STATICCHECK_VERSION) when available)"; \
	fi
	$(GO) run ./cmd/drugtree-lint ./...

# One-iteration smoke over every benchmark in the tree: -benchtime=1x
# compiles and executes each Benchmark* once, so a bit-rotted
# benchmark (stale query, renamed helper, broken setup) fails the gate
# without paying for real measurement. Real numbers come from `make
# bench` and the experiment tables.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The benchmark's own tests. perfbench is a separate Go module that
# imports the engine from this checkout, so `go test ./...` at the
# root never reaches it: every workload run tiny (traced and
# untraced, answers checked against the query.NaiveOptions oracle),
# the metric names/units contract against BENCHMARK.json, and the
# teeth test.
bench-check:
	cd perfbench && $(GO) test ./...

# Parallel-executor microbenchmarks, the subtree key-set probe vs
# scan (single node and 2 shards), plus the experiment tables.
bench:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchmem ./internal/query/...
	$(GO) test -run xxx -bench 'BenchmarkSubtreeKeySet' -benchmem ./internal/experiments/
	$(GO) test -run xxx -bench 'BenchmarkT7Parallelism' -benchmem .

# The T8 chaos experiment: scripted outage/brownout/error-burst
# timeline with the resilience stack on vs off, plus its gate test.
chaos:
	$(GO) test -run TestRunT8 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-bench -exp T8

# The T12 replication chaos experiment: scripted leader/follower
# kill-restart sequence over a live read/write workload, plus its gate
# test (zero failed reads, bounded staleness, promotion measured,
# quiesced differential).
chaos-replica:
	$(GO) test -run TestRunT12 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-bench -exp T12

# The T9 overload experiment: Poisson load sweep past saturation,
# deadline-aware shedding vs an unprotected queue, plus its gate test
# under the race detector.
overload:
	$(GO) test -race -run TestRunT9 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-bench -exp T9

# The T13 crash-point torture experiment: a deterministic FaultFS
# power-cuts every persistence path (store WAL/snapshot, shard
# MANIFEST, replica seed/ship) at every mutating operation, under
# every -wal-sync policy and three fault mixes (clean cut, torn write
# + cut, failed fsync + cut). The gate test re-runs the full matrix
# and demands zero durability violations over >= 200 distinct crash
# points; a failure prints the seed and crash-point index to replay
# it. The meta-test proves the harness has teeth by re-running with
# directory fsync disabled and demanding violations. The -timeout is
# the wedge watchdog: a crash point that hangs recovery dumps stacks
# instead of idling.
torture:
	$(GO) test -count=1 -timeout=300s -run 'TestRunT13|TestT13HarnessHasTeeth' -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-bench -exp T13

# The T14 live-ingest experiment under the race detector: snapshot
# isolation while resync commits land (zero torn reads across atomic
# generation flips), the incrementally maintained subtree overlay
# bit-identical to a from-scratch recompute over 120 seeded delta
# batches, per-statement p99 right after a commit within 1.5x of
# quiescent, and a leak-free quiescent state (zero pinned snapshots,
# zero unswept dead versions). Deterministic — a red run prints the
# seed and the failing gate.
ingest:
	$(GO) test -race -count=1 -timeout=300s -run TestRunT14 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-bench -exp T14

check: lint vet-compat build test bench-smoke bench-check race chaos-replica

clean:
	$(GO) clean ./...
