# Developer entry points. CI runs `make test`; perf smoke is one
# command; `make lint` is the static-analysis gate (vet + wcclint, plus
# staticcheck when installed).

GO ?= go

.PHONY: build test vet lint race fuzz-smoke chaos-smoke repl-chaos-smoke bench-smoke bench-json bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: go vet, then the repo's own invariant checkers
# (cmd/wcclint: determinism, faultseam, hotpath, durability — see
# internal/lint/README.md), then staticcheck if it is on PATH (CI
# installs a pinned version; the dev container may not have it, so it
# is optional here rather than a hard dependency).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/wcclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./internal/..."; staticcheck ./internal/...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# Seed-corpus pass over every fuzz target (edge-list parser, binary CSR
# codec, edge-batch wire format, append endpoint, WAL replay, crash
# recovery): the recorded crash/error cases run as plain tests in
# seconds, and the crash-point sweep kills the store at every injected
# filesystem fault site. `go test -fuzz` explores further; this target
# is the regression gate CI runs.
fuzz-smoke:
	$(GO) test -run='^Fuzz|^TestCrashPointSweep$$' ./internal/graph/ ./internal/service/ ./internal/store/

# The chaos gate: the store-level crash-point sweep (every filesystem
# operation in the put/append/compaction workload killed once, recovery
# digest-verified) plus the service-level failure tests (admission
# overload, panic containment, degraded read-only mode, drain deadline),
# all under the race detector. CI sets CHAOSFLAGS=-v to capture the
# per-crash-point fault logs as an artifact.
CHAOSFLAGS ?=
chaos-smoke:
	$(GO) test $(CHAOSFLAGS) -race -run='^TestCrash|^TestAppendRollback' ./internal/store/
	$(GO) test $(CHAOSFLAGS) -race -run='^TestAdmission|^TestPanic|^TestDegraded|^TestCloseTimeout' ./internal/service/
	$(GO) test $(CHAOSFLAGS) -race ./internal/fault/ ./internal/retry/
	$(MAKE) repl-chaos-smoke

# The replication chaos gate: the feed torn at every record boundary,
# torn receives, connect/snapshot faults, the primary killed mid-batch
# and restarted, the replica SIGKILLed and restarted from its durable
# position — every run must end in bit-identical digest convergence or
# a clean rejection; there is no third outcome. Runs under the race
# detector because replication is tailer goroutines against a live
# service. CHAOSFLAGS=-v captures the repl: transition logs and fault
# event sequences as the repro recipe.
repl-chaos-smoke:
	$(GO) test $(CHAOSFLAGS) -race -run='^TestChaos|^TestFeedGone|^TestReplicaRestart|^TestSnapshot' ./internal/repl/

# Race-checked run of the packages with executor-level concurrency,
# plus the replica apply path (repl tailers apply, and compact, through
# the store while dynamic engines fold the batches).
race:
	$(GO) test -race ./internal/mpc/ ./internal/parallel/ ./internal/algo/ ./internal/randwalk/ ./internal/randomize/ ./internal/baseline/ ./internal/service/ ./internal/store/ ./internal/repl/ ./internal/dynamic/

# One-iteration pass over the perf-critical benchmarks: catches crashes,
# allocation regressions (-benchmem), and gross slowdowns in seconds.
# The service line also runs the AllocsPerRun guard that pins the
# cache-hit query path at 0 allocs/op (TestQueryHitPathZeroAllocs), and
# BenchmarkAppendForward, whose B/op shows an append forward that went
# back to one O(n) relabel per cached configuration. The store line
# times the content digest (CSR and mmap'd snapshot) and a whole Open
# of a data dir holding one 2^20-edge graph.
# CI uploads the output as an artifact for benchstat diffs across PRs.
bench-smoke:
	$(GO) test -run=NONE -benchtime=1x -benchmem \
		-bench='Pipeline|LayeredWalk|MPCSort|RouteAllocs|IndependentWalksParallel|BinaryCodec|SolveNative|SolveMPC|SolveMapped' .
	$(GO) test -run='ZeroAllocs' -benchtime=1x -benchmem \
		-bench='QueryHit|QueryBatch|HTTPQuery|AppendForward' ./internal/service/
	$(GO) test -run=NONE -benchtime=1x -benchmem \
		-bench='DigestGraph|DigestViewMapped|DiskOpen' ./internal/store/

# The out-of-core smoke: a union-of-cliques WCCM1 file ~4x larger than
# the Go soft memory limit solved off a real mmap, labels verified
# analytically, heap asserted below the limit afterwards. CI runs it at
# the full ~64MB shape; locally it defaults to ~3MB for speed.
.PHONY: ooc-smoke
ooc-smoke:
	WCC_OOC_SCALE=full $(GO) test -run='^TestOutOfCoreSmokeUnderMemoryLimit$$' -v ./internal/parallel/

# bench-smoke with the output captured and parsed into a JSON snapshot
# ({bench, ns_op, allocs_op} per benchmark). The snapshot for this PR
# is committed as BENCH_9.json (the series started at BENCH_7.json; it
# now carries the in-RAM vs out-of-core solve pair, SolveNative vs
# SolveMapped) and CI uploads the regenerated copy as an artifact, so
# the perf trajectory is a diffable series of files. (Write to the file
# first, cat after: `| tee` would eat a bench failure's exit status
# under shells without pipefail.)
BENCHOUT ?= BENCH_9.json
bench-json:
	$(MAKE) bench-smoke >bench-smoke.txt 2>&1; st=$$?; cat bench-smoke.txt; test $$st -eq 0
	$(GO) run ./cmd/wccbench -parse-bench bench-smoke.txt -json-out $(BENCHOUT)
	@echo "wrote $(BENCHOUT)"

# Full benchmark sweep (slow).
bench:
	$(GO) test -run=NONE -bench=. -benchmem .
