// Package repro is a from-scratch Go reproduction of "Massively Parallel
// Algorithms for Finding Well-Connected Components in Sparse Graphs"
// (Assadi, Sun, Weinstein; PODC 2019, arXiv:1805.02974).
//
// The public entry points live in internal/core (Theorem 1/4 pipeline and the
// Corollary 7.1 oblivious variant) and internal/sublinear (Theorem 2);
// cmd/wccfind, cmd/wccgen, cmd/wccbench, cmd/wccserve, cmd/wccstream
// and cmd/wccload are the executables.
//
// # Algorithm registry
//
// internal/algo unifies every connectivity algorithm in the repository
// behind one interface: Algorithm{Name, Find(g, Options)} with a named
// registry over "wcc" (Theorem 1), "sublinear" (Theorem 2), the four
// baselines ("hashtomin", "boruvka", "labelprop", "exponentiate"),
// "dynamic" (the sequential incremental engine), and "parallel" (the
// native shared-memory solver, internal/parallel: Afforest-style
// neighbor sampling plus a lock-free concurrent union-find on the
// executor pool, no MPC simulation). All implementations return exact
// labelings and are deterministic for a fixed Options.Seed regardless
// of Options.Workers, and each declares (algo.ReadsOf) which of seed, λ
// and memory its labeling depends on, so a labeling is addressable by
// (graph digest, name, the options it reads). Every algorithm reads its
// input as a graph.View. cmd/wccfind and the experiment harness
// select algorithms through the registry instead of per-binary switches.
// Exactness is enforced by a metamorphic conformance suite: all
// algorithms must agree up to canonical relabeling (algo.CanonicalForm)
// on randomized gen.Spec instances, intra-component edge appends must
// not move the partition, and inter-component appends must merge exactly
// two components.
//
// # Connectivity service
//
// internal/service turns one-shot runs into a long-lived query system:
// a content-addressed graph store (load edge lists or generate gen.Spec
// families), an async job runner over a bounded worker pool, and a
// sharded LRU labeling cache so same-component / component-size /
// component-count queries answer in O(1) after a single solve. The
// cache-hit read path is zero-allocation and takes no global lock:
// lock-free graph handles, per-graph atomic version snapshots (no store
// round trip), fixed-size struct cache keys, lock-striped cache shards
// with atomic recency stamps, and pooled append-based JSON responses.
// POST /v1/query/batch answers many queries against one labeling
// lookup. The solve path is split: requests that do not name an
// algorithm run the native "parallel" solver (wccserve -default-algo;
// perfbench measures it at about 67 000 times the edges/s of the
// simulated paper pipeline, parallel.solve_edges_per_s ÷
// core.solve_edges_per_s), while the MPC/paper
// algorithms stay selectable per request and remain the verification
// path (wccstream -verify cross-checks against them). Labelings are
// cached per algorithm, so changing -default-algo re-keys what
// algo-less requests hit without ever serving stale entries.
// cmd/wccserve exposes it over HTTP+JSON with graceful shutdown
// (plus an optional separate net/http/pprof listener via -pprof);
// cmd/wccload is the query-storm load harness reporting throughput and
// latency percentiles. See internal/service/README.md, "Performance &
// tuning", for the read-path design and benchmark methodology.
// internal/client is the one typed Go client of this API: a method per
// endpoint that wccload and wccstream call, decoding into the request
// and response types internal/service declares beside its handlers
// (wire.go), and one retry loop over internal/retry. Its appends carry
// the digest of the last version it saw as If-Match, so an append
// retried after a lost response comes back applied=false instead of
// landing twice. wccload is kept beside perfbench because they measure
// different things: perfbench can drive only wccserve children it starts
// itself, and its query storm is one goroutine, while wccload aims -c
// concurrent workers at an existing deployment and its -targets
// replicas.
//
// # Dynamic connectivity
//
// Stored graphs are versioned and append-only: POST /v1/graphs/{id}/edges
// absorbs an edge batch through an incremental union-find
// (internal/dynamic) in near-O(α) amortized time per edge, bumps the
// version (chained digest), and fast-forwards cached labelings across
// the batch instead of invalidating them. Each version holds one
// partition into components, shared by every cached configuration: an
// append forwards it once (dynamic.MergePartition) or, when the batch
// merged nothing, the new version shares its parent's. Connectivity
// under insertions is monotone, so the forwarded partition is
// bit-identical (up to canonical relabeling) to a fresh full solve, and
// a second algorithm's solve of a version is checked against the
// partition already held there.
// Version metadata (including each version's merge count) is bounded by
// the -max-version-gap threshold; beyond it the service falls back to a
// registry re-solve. gen.TraceSpec describes reproducible churn
// workloads and cmd/wccstream replays them (generated or recorded trace
// files) against a live server, reporting sustained batches/sec;
// experiment E15 measures the incremental-vs-recompute crossover. See
// internal/dynamic/README.md.
//
// # Durable storage
//
// Graph state lives behind the pluggable internal/store.Store
// interface — base snapshots, appended batches, version lineages and
// their chained digests — with two backends passing one conformance
// suite: an in-memory map (the default) and a durable disk store
// (wccserve -data-dir). The durable backend keeps, per graph, a WCCM1
// snapshot file plus an fsync'd append-only edge-batch WAL, both
// digest-verified and replayed on boot; a restarted server answers the
// same queries (same IDs, versions, chained digests) it did before
// SIGTERM. Both backends compact on one path: once a full extra window
// of batches retired from the retained version window has piled up,
// the append that sees it folds them into a fresh snapshot (a resident
// CSR, or a new WCCM1 file and WAL) before it returns — one snapshot
// rewrite per RetainVersions appends, not one per append, and at most
// 2×RetainVersions batches per graph. Eviction under MaxGraphs pressure is LRU by last
// access, so hot graphs survive.
// WCCM1 is internal/graph's fixed-width, page-aligned,
// digest-trailered CSR layout (wccgen -format mapped writes it, wccfind
// auto-detects it). It costs about 10.5 bytes per edge on disk against
// 3.6 for the varint-delta WCCB1 codec (WriteBinary/ReadBinaryLimit,
// which remains the compact CLI file format, wccgen/wccfind -format
// binary), but a store restart maps it in about a tenth of the time
// WCCB1 takes to decode. See internal/store/README.md for the on-disk
// layout and crash-recovery rules.
//
// # Out-of-core solving
//
// Durable graphs never become heap-resident: the store memory-maps each
// snapshot on open through the fault.FS seam (positioned reads when
// mmap is unavailable) and serves graph.View handles straight off the
// mapping, with appended batches layered as an in-memory overlay.
// Every algorithm's Find takes a graph.View. "parallel"
// (parallel.ComponentsView) and "dynamic" scan the view in place with
// only the O(n) union-find and label arrays on the heap, so graphs
// larger than RAM or GOMEMLIMIT load, solve, and serve —
// bit-identically to the in-RAM path (the labeling contract is
// metamorphically enforced) and, by the perfbench per-layer metrics, at
// 0.99 of its speed (parallel.solve_mapped_edges_per_s ÷
// parallel.solve_edges_per_s over a real mmap). The simulated MPC
// algorithms materialize the view for the length of one solve
// (graph.MaterializeView). The incremental engine is seeded from the
// same view, and a replica installs a transferred snapshot from its
// verified mapping without building a CSR. Compaction rebases
// snapshots by streaming merge, mappings are refcounted against
// eviction races, and the crash sweep runs the whole fault-site table,
// map/unmap included.
// See internal/store/README.md, "Mapping lifetime".
//
// # Execution engine
//
// The simulated cluster runs on a pluggable executor (internal/mpc,
// Config.Workers; both CLIs expose it as -workers): machine-local work in
// the communication primitives and the independent instance fan-outs of
// the paper — the Θ(log n) Theorem 3 walk repetitions and the F
// randomization batches of Step 2 — execute either sequentially or on a
// bounded worker pool that shares one global GOMAXPROCS budget across
// nested simulations. A running loop recruits helpers whenever a token
// frees up, and a caller waiting on its helpers lends its CPU, so the
// last of the three Step 2 batches on a 2-vCPU host no longer runs on
// one CPU: perfbench's mpc-reference solve went from 142–151% to
// 184–185% CPU (user+sys over wall). Inside each batch, the walks of a
// vertex block run four at a time on jump-ahead lanes of the block's PCG
// stream (randwalk.DirectWalks), each reading the words it would read
// alone, so the targets are unchanged. On the 2-vCPU Xeon host (Go 1.24)
// BenchmarkDirectWalksLazy fell from 6.1–7.8 to 3.6–5.0 ns per walk step
// at -cpu 1 and from 3.5–4.1 to 1.9–2.8 at -cpu 2 (five alternating runs
// each), and perfbench's mpc_solve_s fell from a median of 4.07 s to
// 2.57 s on giant-merging (10/10 alternating pairs) and from 4.10 s to
// 2.50 s on fragmented-static (5/5), with the same 151 rounds.
//
// Step 2's walks are lazy: they stay put with probability 2/3
// (randomize.LazyStay, the law of g with Δ self-loops). The Direct engine
// no longer walks the stays. Each walk draws its move count B ~
// Binomial(T, 1/3) once, from a table of 64-bit CDF thresholds, and then
// takes only its B moves on g, which is the same endpoint law. That is
// about a third of the PCG draws and adjacency loads of before. On the
// same host BenchmarkDirectWalksLazy (still per lazy step) fell from
// 3.5–4.6 to 1.3–1.9 ns at -cpu 1 and from 2.6–3.7 to 1.1–1.4 ns at
// -cpu 2 (five alternating runs each). perfbench's mpc_solve_s fell from
// 2.11–3.14 s (median 2.62) to 1.06–1.51 s (median 1.34) on
// giant-merging (10/10 alternating pairs, at seeds 1 and 2), and from
// 2.50/2.70 s to 1.36/1.39 s on fragmented-static (2/2), with the same
// 151 rounds.
//
// On a regular graph the walk moves take several exact neighbour indices
// from each 64-bit PCG word, where one word per move used about 3.2 of
// its bits: ten at Δ = 9, by Lemire's multiply-shift applied repeatedly,
// with the batched form's exact rejection step (Brackett-Rozinsky and
// Lemire, arXiv:2408.06213). On the same host BenchmarkDirectWalksLazy
// fell from 1.25–1.72 to 0.55–0.76 ns per lazy step at -cpu 1 and from
// 0.66–0.90 to 0.31–0.48 ns at -cpu 2 (five alternating runs each).
// perfbench's mpc_solve_s fell from a median of 0.968 s to 0.627 s on
// giant-merging (10/10 alternating pairs) and from 1.085 s to 0.708 s on
// fragmented-static (6/6), with the same 151 rounds.
//
// Every repetition draws its randomness from a PCG substream keyed by its
// index (mpc.StreamRNG), so for a fixed seed the output is bit-identical
// regardless of worker count or schedule; see internal/mpc/README.md for
// the executor model and the seed-derivation scheme.
//
// # Evidence
//
// Each kind of claim has one home. The paper's round bounds are the
// experiment tables of internal/bench (E1–E15, ablations A1–A4),
// regenerated by cmd/wccbench; EXPERIMENTS.md holds their quick-size
// output. Performance claims are perfbench's (its own module), whose
// end-to-end metrics are gated; `make bench-smoke` is only a crash and
// allocation gate.
//
// Three removals were decided on that evidence. The MPC Borůvka
// minimum-spanning-forest package (mst) is gone: no paper claim,
// experiment, CLI or registry entry used it. The WCCB1 codec stays:
// perfbench measures it at 3.61 bytes per edge against WCCM1's 10.49
// (graph.wccb1_bytes_per_edge, graph.wccm1_bytes_per_edge), it is the
// compact file format wccgen and wccfind read and write, and
// TestBinaryRoundTripAllGenFamilies asserts it stays smaller than text
// on every generator family. The examples/ programs stay as the
// runnable tour: each exits non-zero when its output contradicts its
// claim, and the library test behind each claim is
// TestFindComponentsExpanderKnownLambda (quickstart),
// TestFindComponentsMixedGaps (mixedgap), the TestConnectivitySketch*
// tests and internal/sublinear's TestComponentsArbitraryGraphs
// (sketchstream), and TestFindComponentsOblivious (socialnetwork).
//
// # Static analysis
//
// The invariants above are enforced statically, not just by tests:
// cmd/wcclint (run by `make lint` and CI) carries four repo-specific
// analyzers built on internal/lint's stdlib-only framework. determinism
// forbids wall-clock reads, global math/rand draws, and map-iteration
// order leaking into outputs inside the twenty seed-deterministic
// algorithm/simulator packages; faultseam keeps internal/store behind
// the internal/fault filesystem seam so the crash-point sweep sees
// every I/O; hotpath proves the //wcc:hotpath-annotated query surface
// (the functions TestQueryHitPathZeroAllocs measures) transitively free
// of heap allocations; durability checks the write→Sync→Rename ordering
// and that Sync errors are never discarded. Violations need a reasoned
// //wcclint:ignore to land. See internal/lint/README.md for the rules,
// markers, and how to extend the suite.
package repro
