# Developer entry points. CI runs `make test`; perf smoke is one
# command; `make lint` is the static-analysis gate (vet + wcclint, plus
# staticcheck when installed).

GO ?= go

.PHONY: build test vet gofmt-check lint race fuzz-smoke chaos-smoke repl-chaos-smoke bench-smoke bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing every tracked Go file gofmt would rewrite. testdata is
# exempt: the analyzer fixtures there are inputs, some deliberately odd.
gofmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt -l: not gofmt-clean:"; echo "$$out"; exit 1; fi

# Static analysis gate: the gofmt check, go vet, then the repo's own
# invariant checkers (cmd/wcclint: determinism, faultseam, hotpath,
# durability — see internal/lint/README.md), then staticcheck if it is
# on PATH (CI installs a pinned version; the dev container may not have
# it, so it is optional here rather than a hard dependency).
lint: gofmt-check
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
	$(GO) test $(CHAOSFLAGS) -race -run='^TestCrash|^TestAppendRollback|^TestEvictDuringCompaction|^TestCloseDuringCompaction' ./internal/store/
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
# the store while dynamic engines fold the batches), plus the HTTP client
# that wccload's concurrent workers share. The second line
# reruns the walk and pipeline determinism and oracle tests at
# GOMAXPROCS 1, 2 and 3: randwalk's TestMain raises GOMAXPROCS to 4,
# which can hide a schedule that only a narrower pool takes.
race:
	$(GO) test -race ./internal/mpc/ ./internal/parallel/ ./internal/algo/ ./internal/randwalk/ ./internal/randomize/ ./internal/baseline/ ./internal/service/ ./internal/store/ ./internal/repl/ ./internal/dynamic/ ./internal/client/
	$(GO) test -cpu 1,2,3 -run 'Determin|Oracle' ./internal/randwalk/ ./internal/randomize/ ./internal/core/

# One-iteration pass over the perf-critical benchmarks: a crash and
# allocation gate (-benchmem), not a source of performance numbers —
# one iteration is dominated by warm-up; perfbench holds the measured,
# gated figures.
# The service line also runs the AllocsPerRun guard that pins the
# cache-hit query path at 0 allocs/op (TestQueryHitPathZeroAllocs), and
# BenchmarkAppendForward, whose B/op shows an append forward that went
# back to one O(n) relabel per cached configuration. The store line
# times the content digest (CSR and mmap'd snapshot), a whole Open
# of a data dir holding one 2^20-edge graph, and a View of the tip
# after 65 and 2000 appends on both backends, whose B/op and
# held-edges show a record that went back to keeping every appended
# edge (the benchmark also fails then). That the WCCB1 encoding
# stays smaller than text is asserted by internal/graph's
# TestBinaryRoundTripAllGenFamilies, not here. The graph line parses a
# 2^20-edge list and one 256-edge append body; the latter's B/op shows
# an append parser that went back to a buffer sized for its longest
# possible line.
# CI uploads the raw output as an artifact for benchstat diffs.
bench-smoke:
	$(GO) test -run=NONE -benchtime=1x -benchmem \
		-bench='Pipeline|LayeredWalk|DirectWalksLazy|RandomizeBatches|MPCSort|RouteAllocs|IndependentWalksParallel|BinaryCodec|SolveNative|SolveMPC|SolveMapped' .
	$(GO) test -run='ZeroAllocs' -benchtime=1x -benchmem \
		-bench='QueryHit|QueryBatch|HTTPQuery|AppendForward' ./internal/service/
	$(GO) test -run=NONE -benchtime=1x -benchmem \
		-bench='DigestGraph|DigestViewMapped|DiskOpen|TipView' ./internal/store/
	$(GO) test -run=NONE -benchtime=1x -benchmem \
		-bench='ReadEdge' ./internal/graph/

# The out-of-core smoke: a union-of-cliques WCCM1 file ~4x larger than
# the Go soft memory limit solved off a real mmap, labels verified
# analytically, heap asserted below the limit afterwards. CI runs it at
# the full ~64MB shape; locally it defaults to ~3MB for speed.
.PHONY: ooc-smoke
ooc-smoke:
	WCC_OOC_SCALE=full $(GO) test -run='^TestOutOfCoreSmokeUnderMemoryLimit$$' -v ./internal/parallel/

# Full benchmark sweep (slow).
bench:
	$(GO) test -run=NONE -bench=. -benchmem .
