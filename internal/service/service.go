// Package service is the long-lived connectivity query layer on top of the
// internal/algo registry: a graph store (load edge lists or generate gen
// families on demand), an async job runner executing Find jobs on a
// bounded worker pool, and a sharded labeling cache keyed by (graph
// version digest, algorithm, seed, λ, memory) so repeated queries —
// same-component, component-size, component-count, solve statistics —
// answer in O(1) without re-running any algorithm.
//
// The cache-hit query path is deliberately allocation-free and takes no
// global lock: graph handles resolve through a concurrent map, version
// metadata comes from a per-graph atomic snapshot refreshed on append
// (no storage-engine round trip), cache keys are fixed-size comparable
// structs (no formatting), and the cache itself is lock-striped with
// atomic recency stamps. See the "Performance & tuning" section of
// README.md and BenchmarkQueryHit.
//
// Graph state itself lives behind the internal/store.Store interface:
// the service holds no edge, version, or digest data of its own, only
// runtime handles (per-graph incremental engines and locks) keyed on
// store identities. New selects the in-memory backend; Config.DataDir
// selects the durable snapshot+WAL backend, which replays its files on
// Open so a restarted wccserve answers the same queries (same digests,
// same versions) it did before SIGTERM.
//
// The same chained-digest version lineage is what internal/repl ships
// between processes: a primary streams each graph's edge-batch WAL to
// hot standbys, which verify every record against the chain before
// applying it through their own store. Config.ReplicaOf flips a service
// into replica mode — client writes answer 421 naming the primary
// (ErrNotPrimary via notPrimary gates the mutating paths), reads and
// solves serve normally, and /readyz reports 503 until replication lag
// is within Config.ReplLagMax (SetReplReporter wires the gate). The
// apply path (ApplyReplicated, BootstrapReplicated, DropReplicated in
// repl.go) is the only writer on a replica; labelings are derived state
// and are never replicated — each replica solves locally.
//
// Algorithms are deterministic for a fixed seed regardless of the worker
// setting (see internal/algo), which is what makes the cache key sound:
// two solves of the same graph digest under the same configuration always
// produce the same labeling. Requests that do not name an algorithm run
// Config.DefaultAlgo — by default "parallel", the native shared-memory
// solver (internal/parallel), so serving traffic skips MPC simulation
// entirely; the paper algorithms stay selectable per request as the
// research/verify path. Jobs that do simulate draw their machine-local
// parallelism from the one global GOMAXPROCS−1 token budget of
// internal/mpc, so a busy service degrades to sequential sims instead
// of oversubscribing the host.
//
// cmd/wccserve exposes the service over HTTP+JSON; see NewHandler.
package service

import (
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/retry"
	"repro/internal/store"
)

// ErrNotFound marks lookups of graphs or jobs that do not exist (never
// stored, or evicted by the bounded store/history). The HTTP layer maps
// it to 404 on every endpoint, so clients can distinguish "re-load the
// graph" from a malformed request.
var ErrNotFound = errors.New("not found")

// ErrUnavailable marks transient server-side conditions — a saturated job
// queue or a shutdown in progress. The HTTP layer maps it to 503 so
// clients retry instead of treating overload as a permanent 4xx.
var ErrUnavailable = errors.New("service unavailable")

// ErrDegraded marks mutations rejected while the service is in degraded
// read-only mode: the storage engine reported a persistent write
// failure, so appends and loads are refused while the query path keeps
// answering from cache. It wraps ErrUnavailable, so the HTTP layer's
// 503 mapping (and clients' retry logic) applies unchanged; /readyz and
// /v1/stats surface the cause. The background probe loop (or an
// explicit TryRecover) lifts the mode once the store accepts durable
// writes again.
var ErrDegraded = fmt.Errorf("%w: store degraded (read-only)", ErrUnavailable)

// Config sizes a Service. The zero value selects the defaults.
type Config struct {
	// JobWorkers is the number of concurrent solve jobs (default 2).
	JobWorkers int
	// CacheEntries is the labeling-cache capacity (default 64).
	CacheEntries int
	// SimWorkers is the simulator worker setting applied to solves that do
	// not specify one (mpc.Config.Workers semantics; default 0 =
	// sequential — except under the native "parallel" solver, which
	// reads 0 as use-all-cores). It never affects results, only
	// wall-clock.
	SimWorkers int
	// DefaultAlgo is the algorithm solves and queries use when the
	// request does not name one (default "parallel", the native
	// shared-memory solver; the paper algorithms stay selectable per
	// request). It must be a registered name — Open fails otherwise.
	// The default participates in cache keys exactly as if the client
	// had spelled it out: labelings are keyed by algorithm, so servers
	// running different DefaultAlgo values answer algo-less queries
	// from differently keyed entries (never stale ones).
	DefaultAlgo string
	// QueueDepth bounds the async job queue (default 128).
	QueueDepth int
	// MaxVertices and MaxEdges bound the graphs the service will accept
	// or generate — tiny requests can otherwise demand huge allocations
	// (a 14-byte edge-list header can declare 2^31 vertices; a 30-byte
	// clique spec is O(n²) edges). Defaults: 1<<22 vertices, 1<<24 edges.
	// Negative means unlimited (trusted callers only).
	MaxVertices int
	MaxEdges    int
	// JobHistory bounds how many completed jobs stay queryable via
	// /v1/jobs/{id}; older ones (and the labelings they pin) are dropped
	// so a long-lived service does not grow without bound (default 256).
	JobHistory int
	// MaxGraphs bounds the graph store, least-recently-accessed evicted
	// first, so hot graphs survive capacity pressure: each distinct edge
	// list pins up to MaxVertices/MaxEdges of memory forever otherwise
	// (default 64; negative = unlimited). Queries against an evicted
	// graph return unknown-graph errors until it is loaded again.
	MaxGraphs int
	// MaxVersionGap is the incremental-vs-recompute threshold of the
	// dynamic subsystem: each stored graph retains its last
	// MaxVersionGap+1 versions (metadata + batch boundaries), and a
	// cached labeling can be fast-forwarded across at most MaxVersionGap
	// appended batches. A labeling whose version has fallen out of that
	// window cannot be delta-merged anymore — queries report not-solved
	// and the client re-solves through the registry instead (default 64).
	MaxVersionGap int
	// DataDir selects the durable storage backend: per-graph WCCM1
	// snapshot plus an fsync'd edge-batch WAL under this directory,
	// digest-verified and replayed on Open (see internal/store). Solves
	// of "parallel" and "dynamic" then run straight off the snapshot's
	// mapping, so graphs larger than RAM (or GOMEMLIMIT) load and
	// solve. Empty selects the in-memory backend — nothing survives a
	// restart.
	DataDir string
	// FS is the filesystem seam handed to the durable store (nil = the
	// real filesystem). wccserve -fault-spec and the chaos tests pass a
	// fault.Inject-wrapped one; see internal/fault.
	FS fault.FS
	// RequestTimeout bounds each HTTP request's handler time via a
	// context deadline (default 30s; negative disables). Handlers that
	// wait (solve with wait=true) honor it; a running solve itself is
	// not cancelable — the deadline releases the handler, the job stays
	// pollable.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently admitted HTTP requests (default
	// 256; negative = unlimited). Requests beyond it join a bounded wait
	// queue instead of piling onto the handlers.
	MaxInflight int
	// AdmissionQueue bounds how many requests may wait for an admission
	// slot; past it requests are shed immediately with 429 + Retry-After
	// (default: MaxInflight; negative = no waiting, shed on saturation).
	AdmissionQueue int
	// QueueWait is how long a queued request waits for a slot before
	// being shed with 429 (default 100ms).
	QueueWait time.Duration
	// AppendRetries is how many times the append path retries a
	// transient storage failure (with jittered backoff) before giving up
	// and entering degraded read-only mode (default 2; negative = no
	// retries).
	AppendRetries int
	// ProbeInterval is how often the background loop probes a degraded
	// store for recovery (default 1s; negative disables the loop — tests
	// drive recovery via TryRecover).
	ProbeInterval time.Duration
	// ReplicaOf marks this service a read-only replica of the primary at
	// the given base URL. Client mutations (load, generate, append) are
	// refused with ErrNotPrimary (421 over HTTP, so clients re-aim at the
	// primary); state advances only through the replicated-apply path
	// (ApplyReplicated, BootstrapReplicated) driven by internal/repl.
	// Empty (the default) means this node is a primary.
	ReplicaOf string
	// ReplLagMax is how many versions a replica may trail the primary on
	// any graph before /readyz reports 503: a load balancer keeps traffic
	// off a replica whose answers are stale beyond the bound, while the
	// replica keeps catching up (default 8; negative = never gate).
	ReplLagMax int
	// Logf sinks operational log lines — panics recovered, degraded-mode
	// transitions, drain-deadline abandonments (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 1 << 22
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 1 << 24
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.MaxGraphs == 0 {
		c.MaxGraphs = 64
	}
	if c.MaxVersionGap <= 0 {
		c.MaxVersionGap = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.AdmissionQueue == 0 {
		c.AdmissionQueue = c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.AppendRetries == 0 {
		c.AppendRetries = 2
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ReplLagMax == 0 {
		c.ReplLagMax = 8
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.DefaultAlgo == "" {
		c.DefaultAlgo = "parallel"
	}
	return c
}

// storeConfig maps the service policy onto the storage engine's knobs.
func (c Config) storeConfig() store.Config {
	return store.Config{
		MaxGraphs:      c.MaxGraphs,
		RetainVersions: c.MaxVersionGap + 1,
		FS:             c.FS,
	}
}

// StoredGraph is the runtime handle of one stored graph: its immutable
// identity plus the per-graph incremental engine and append lock. All
// graph state — base snapshot, appended batches, version lineage — lives
// in the storage engine; the handle only accelerates the hot paths (the
// version window snapshot saves queries a store round trip, the
// union-find engine saves appends a rebuild per batch) and is recreated
// on demand after a restart or an eviction/reload cycle.
type StoredGraph struct {
	// ID is "g-" plus a digest prefix; stable across restarts for the same
	// base edge multiset.
	ID string
	// Name is the caller-supplied display name (may be empty).
	Name string
	// Digest is the full SHA-256 of the canonical base edge list — the
	// content address the ID derives from. Appended versions chain their
	// own digests; see LatestDigest and Versions.
	Digest string
	// N and M are the base vertex and edge counts (version 0).
	N, M int

	svc *Service
	// lastAccess is the service-wide logical time of the most recent
	// query against this handle. The hot path stamps it instead of
	// bumping the storage engine's LRU (which would serialize every
	// query on the store mutex); the service replays the stamps into the
	// store right before any Put that could evict (see syncRecency).
	lastAccess atomic.Int64
	// window is the retained-version snapshot queries resolve against
	// without touching the store: refreshed on append and built lazily
	// on first use. See versions.go.
	window atomic.Pointer[versionWindow]
	// mu serializes appends per graph and guards eng. Queries answer
	// from the window snapshot and the (immutable) cached labelings and
	// never take it.
	mu  sync.Mutex
	eng *dynamic.Engine
}

// touch stamps the handle most recently used (service-wide logical
// clock). One atomic add plus one atomic store — no lock, no store
// round trip.
func (sg *StoredGraph) touch() {
	sg.lastAccess.Store(sg.svc.accessClock.Add(1))
}

// Counters are the service-level statistics exposed by /v1/stats. All
// fields are cumulative since startup.
type Counters struct {
	GraphsLoaded    int64
	GraphsGenerated int64
	Solves          int64 // actual algorithm executions
	CacheHits       int64
	CacheMisses     int64
	Queries         int64
	BatchQueries    int64 // batch requests (each counts its members in Queries)
	JobsSubmitted   int64
	JobsDone        int64
	JobsFailed      int64
	// EdgeBatches and EdgesAppended count accepted dynamic appends;
	// IncrementalMerges counts cached labelings fast-forwarded across
	// appended batches instead of being recomputed (each one is a solve
	// the dynamic path avoided).
	EdgeBatches       int64
	EdgesAppended     int64
	IncrementalMerges int64
	// PartitionRelabels counts O(n) partition forwards (one per distinct
	// partition per append, however many configurations share it);
	// PartitionShares counts forwards that merged nothing, where the new
	// version took its parent's partition as is. PartitionMismatches
	// counts results that disagreed with the partition already cached
	// for their version — each one a solver or forwarding bug, logged
	// and never served.
	PartitionRelabels   int64
	PartitionShares     int64
	PartitionMismatches int64
	// PanicsRecovered counts handler panics the recovery middleware
	// turned into 500s; AdmissionRejected counts requests shed with 429;
	// StoreRetries counts transient storage failures the append path
	// retried; DegradedEvents counts entries into read-only mode.
	PanicsRecovered   int64
	AdmissionRejected int64
	StoreRetries      int64
	DegradedEvents    int64
}

// canonEntry memoizes algo.ReadsOf for one registered algorithm: which
// option fields participate in its cache key, plus a dense registry
// index that stands in for the name inside labelingKey. The table is
// built once at Open and read-only afterwards, so hot-path lookups are
// plain map reads — no registry lock, no call into algo, no allocation.
type canonEntry struct {
	idx   uint32
	reads algo.Reads
}

func buildCanonTable() map[string]canonEntry {
	names := algo.Names()
	tab := make(map[string]canonEntry, len(names))
	for i, name := range names {
		tab[name] = canonEntry{idx: uint32(i), reads: algo.ReadsOf(name)}
	}
	return tab
}

// Service is the connectivity query service. Create with New (in-memory)
// or Open (honors Config.DataDir); Close drains the job workers and
// closes the storage engine.
type Service struct {
	cfg   Config
	st    store.Store
	canon map[string]canonEntry // read-only after Open

	// handles maps graph ID → *StoredGraph. Reads are lock-free
	// (sync.Map), which is what keeps s.mu off the query path; creation
	// and eviction sweeps serialize on s.mu so a handle for an evicted
	// graph is never left behind.
	handles     sync.Map
	accessClock atomic.Int64

	mu      sync.RWMutex
	cache   *cache
	jobs    map[string]*Job
	jobHist []string // completed job IDs, oldest first
	jobSeq  int64

	queue     chan *Job
	wg        sync.WaitGroup
	closed    atomic.Bool
	draining  chan struct{}
	drainOnce sync.Once

	// appendRetry is the shared backoff policy for transient storage
	// failures on the append path (Config.AppendRetries).
	appendRetry *retry.Policy
	// slots is the admission semaphore: one token per concurrently
	// admitted HTTP request, nil when MaxInflight < 0. queued counts
	// requests waiting for a token (bounded by Config.AdmissionQueue).
	slots  chan struct{}
	queued atomic.Int64
	// degraded is the read-only latch: set by a persistent storage write
	// failure, cleared when a store probe succeeds. degradedCause (under
	// degradedMu) is the operator-facing reason.
	degraded      atomic.Bool
	degradedMu    sync.Mutex
	degradedCause string
	probeDone     chan struct{}
	probeWG       sync.WaitGroup

	// pulse is closed and replaced on every accepted mutation (append,
	// replicated apply, new graph); replication feed streams block on
	// AppendPulse instead of polling the store. replFn is the status
	// reporter the repl layer installs — /v1/stats and the replica's
	// /readyz lag gate read through it.
	pulse  atomic.Pointer[chan struct{}]
	replFn atomic.Pointer[func() ReplStatus]

	counters struct {
		graphsLoaded, graphsGenerated    atomic.Int64
		solves, cacheHits, cacheMisses   atomic.Int64
		queries, jobsSubmitted, jobsDone atomic.Int64
		jobsFailed, batchQueries         atomic.Int64
		edgeBatches, edgesAppended       atomic.Int64
		incrementalMerges                atomic.Int64
		partitionRelabels                atomic.Int64
		partitionShares                  atomic.Int64
		partitionMismatches              atomic.Int64
		panicsRecovered, storeRetries    atomic.Int64
		admissionRejected                atomic.Int64
		degradedEvents                   atomic.Int64
	}
}

// Open starts a Service with cfg's worker pool running, backed by the
// durable disk store when cfg.DataDir is set (replaying its snapshots
// and WALs — the error is the store's verification verdict) and the
// in-memory store otherwise.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if _, err := algo.Get(cfg.DefaultAlgo); err != nil {
		return nil, fmt.Errorf("service: DefaultAlgo: %w", err)
	}
	var st store.Store
	if cfg.DataDir != "" {
		disk, err := store.Open(cfg.DataDir, cfg.storeConfig())
		if err != nil {
			return nil, err
		}
		st = disk
	} else {
		st = store.NewMemory(cfg.storeConfig())
	}
	s := &Service{
		cfg:      cfg,
		st:       st,
		canon:    buildCanonTable(),
		cache:    newCache(cfg.CacheEntries, 0),
		jobs:     make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
		draining: make(chan struct{}),
		// Seeded, so a test run's retry timing is reproducible; the exact
		// delays only matter under injected faults anyway.
		appendRetry: retry.New(cfg.AppendRetries+1, 5*time.Millisecond, 250*time.Millisecond, 0x5eed),
		probeDone:   make(chan struct{}),
	}
	ch := make(chan struct{})
	s.pulse.Store(&ch)
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.ProbeInterval > 0 {
		s.probeWG.Add(1)
		go s.probeLoop()
	}
	return s, nil
}

// probeLoop polls the store while the service is degraded so read-only
// mode lifts itself once the underlying failure clears — no operator
// intervention, no restart. When healthy each tick is one atomic load.
func (s *Service) probeLoop() {
	defer s.probeWG.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.TryRecover()
		case <-s.probeDone:
			return
		}
	}
}

// New is Open for the in-memory backend, which cannot fail. It panics if
// cfg.DataDir is set and unusable; durable callers should use Open.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("service.New: %v (use Open for durable stores)", err))
	}
	return s
}

// Close stops accepting jobs, waits for in-flight jobs to finish, closes
// the storage engine, and returns. Safe to call more than once and
// concurrently with Submit (Submit synchronizes on the same mutex before
// touching the queue).
func (s *Service) Close() {
	s.CloseTimeout(0)
}

// CloseTimeout is Close with a drain deadline: it stops accepting jobs,
// waits up to d for the in-flight solve jobs to finish (d <= 0 waits
// indefinitely), and returns the IDs of jobs still unfinished when the
// deadline passed, oldest first. Abandoned jobs keep running on their
// worker goroutines against a store that is closing underneath them —
// they terminate promptly as failed jobs rather than blocking shutdown,
// which is the contract wccserve's -drain-timeout wants: a wedged solve
// must not hold the process hostage, and the operator hears exactly
// which jobs were cut loose.
func (s *Service) CloseTimeout(d time.Duration) []string {
	s.StartDrain()
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	close(s.queue)
	s.mu.Unlock()
	close(s.probeDone)
	s.probeWG.Wait()
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var abandoned []string
	if d <= 0 {
		<-workersDone
	} else {
		select {
		case <-workersDone:
		case <-time.After(d):
			abandoned = s.unfinishedJobs()
			s.cfg.Logf("service: drain deadline %v passed with %d jobs unfinished: %v", d, len(abandoned), abandoned)
		}
	}
	s.st.Close()
	return abandoned
}

// unfinishedJobs lists jobs not yet in a terminal state, oldest first.
func (s *Service) unfinishedJobs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for id, j := range s.jobs {
		if snap := j.Snapshot(); snap.Status == JobQueued || snap.Status == JobRunning {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// enterDegraded latches the service into degraded read-only mode after
// a persistent storage write failure: mutating operations fail fast
// with ErrDegraded (a 503 over HTTP) while the zero-allocation query
// path keeps answering from cache. The probe loop lifts the latch once
// the store accepts durable writes again.
func (s *Service) enterDegraded(cause error) {
	s.degradedMu.Lock()
	s.degradedCause = cause.Error()
	s.degradedMu.Unlock()
	if !s.degraded.Swap(true) {
		s.counters.degradedEvents.Add(1)
		s.cfg.Logf("service: entering degraded read-only mode: %v", cause)
	}
}

// Degraded reports whether the service is in degraded read-only mode,
// and the failure that latched it.
func (s *Service) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedCause
}

// TryRecover probes the store and lifts degraded mode if the probe
// succeeds, reporting whether the service accepts mutations afterwards.
// The background probe loop calls it every ProbeInterval; tests call it
// directly for deterministic recovery.
func (s *Service) TryRecover() bool {
	if !s.degraded.Load() {
		return true
	}
	if err := s.st.Probe(); err != nil {
		return false
	}
	s.degraded.Store(false)
	s.cfg.Logf("service: store probe succeeded; leaving degraded read-only mode")
	return true
}

// writable gates mutating operations on the degraded latch.
func (s *Service) writable() error {
	if s.degraded.Load() {
		s.degradedMu.Lock()
		cause := s.degradedCause
		s.degradedMu.Unlock()
		return fmt.Errorf("%w (cause: %s)", ErrDegraded, cause)
	}
	return nil
}

// StartDrain signals shutdown intent without stopping the workers:
// blocked WaitJob calls return ErrUnavailable immediately so HTTP
// handlers release before the server's drain deadline. cmd/wccserve
// calls it right before http.Server.Shutdown (which does not cancel
// in-flight request contexts itself); Close implies it.
func (s *Service) StartDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Counters snapshots the service statistics.
func (s *Service) Counters() Counters {
	return Counters{
		GraphsLoaded:        s.counters.graphsLoaded.Load(),
		GraphsGenerated:     s.counters.graphsGenerated.Load(),
		Solves:              s.counters.solves.Load(),
		CacheHits:           s.counters.cacheHits.Load(),
		CacheMisses:         s.counters.cacheMisses.Load(),
		Queries:             s.counters.queries.Load(),
		BatchQueries:        s.counters.batchQueries.Load(),
		JobsSubmitted:       s.counters.jobsSubmitted.Load(),
		JobsDone:            s.counters.jobsDone.Load(),
		JobsFailed:          s.counters.jobsFailed.Load(),
		EdgeBatches:         s.counters.edgeBatches.Load(),
		EdgesAppended:       s.counters.edgesAppended.Load(),
		IncrementalMerges:   s.counters.incrementalMerges.Load(),
		PartitionRelabels:   s.counters.partitionRelabels.Load(),
		PartitionShares:     s.counters.partitionShares.Load(),
		PartitionMismatches: s.counters.partitionMismatches.Load(),
		PanicsRecovered:     s.counters.panicsRecovered.Load(),
		AdmissionRejected:   s.counters.admissionRejected.Load(),
		StoreRetries:        s.counters.storeRetries.Load(),
		DegradedEvents:      s.counters.degradedEvents.Load(),
	}
}

// CachedLabelings returns the number of labelings currently cached.
func (s *Service) CachedLabelings() int {
	return s.cache.len()
}

// CacheShardOccupancy returns the per-shard entry counts of the labeling
// cache, in shard order — surfaced by /v1/stats so operators can see
// whether the key mix spreads across the stripes.
func (s *Service) CacheShardOccupancy() []int {
	return s.cache.occupancy()
}

// Config returns the service's effective (defaulted) configuration —
// the active limits /v1/stats reports.
func (s *Service) Config() Config {
	return s.cfg
}

// Load parses an edge list (the wccgen/wccfind format) and stores the
// graph, enforcing the configured vertex/edge limits before the parser
// allocates from the untrusted header. Loading a graph whose digest is
// already present returns the existing entry.
func (s *Service) Load(name string, r io.Reader) (*StoredGraph, error) {
	maxV, maxE := s.cfg.MaxVertices, s.cfg.MaxEdges
	if maxV < 0 {
		maxV = 0 // negative config means unlimited; the parser's 0 is that
	}
	if maxE < 0 {
		maxE = 0
	}
	g, err := graph.ReadEdgeListLimit(r, maxV, maxE)
	if err != nil {
		return nil, err
	}
	sg, err := s.store(name, g)
	if err != nil {
		return nil, err
	}
	s.counters.graphsLoaded.Add(1)
	return sg, nil
}

// Generate builds a gen.Spec workload and stores the graph. The spec's
// estimated cost is checked against the configured limits first — the
// parameters, not the request size, drive the allocation.
func (s *Service) Generate(name string, spec gen.Spec) (*StoredGraph, error) {
	v, e := spec.Cost()
	if s.cfg.MaxVertices >= 0 && v > int64(s.cfg.MaxVertices) {
		return nil, fmt.Errorf("service: spec would build ~%d vertices, limit %d", v, s.cfg.MaxVertices)
	}
	if s.cfg.MaxEdges >= 0 && e > int64(s.cfg.MaxEdges) {
		return nil, fmt.Errorf("service: spec would build ~%d edges, limit %d", e, s.cfg.MaxEdges)
	}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = spec.Family
	}
	sg, err := s.store(name, g)
	if err != nil {
		return nil, err
	}
	s.counters.graphsGenerated.Add(1)
	return sg, nil
}

// Graph returns a stored graph's runtime handle by ID. The fast path is
// one lock-free map read plus a recency stamp — no storage-engine round
// trip, which is what lets a cache-hit query proceed without any global
// lock. Handles are created on demand (through the store, which bumps
// the graph's LRU), so graphs recovered from a data directory are
// addressable without any warm-up.
//
//wcc:hotpath
func (s *Service) Graph(id string) (*StoredGraph, error) {
	if v, ok := s.handles.Load(id); ok {
		sg := v.(*StoredGraph)
		sg.touch()
		return sg, nil
	}
	return s.graphSlow(id)
}

// graphSlow creates the runtime handle for a graph that has no live one:
// first touch after a restart, or after an eviction/reload cycle. It
// takes the global handle lock and a storage-engine round trip — once
// per handle lifetime, never per query.
//
//wcc:coldpath
func (s *Service) graphSlow(id string) (*StoredGraph, error) {
	meta, ok := s.st.Get(id)
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q: %w", id, ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.handleLocked(meta)
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q: %w", id, ErrNotFound)
	}
	sg.touch()
	return sg, nil
}

// handleLocked returns (creating if needed) the runtime handle for a
// graph. Membership is re-verified against the store under s.mu before
// inserting — every eviction sweep (see store()) also runs under s.mu,
// so a handle for a concurrently evicted graph can never be left behind
// in the map. Callers hold s.mu; ok=false means the graph is gone.
func (s *Service) handleLocked(meta store.Meta) (*StoredGraph, bool) {
	if v, ok := s.handles.Load(meta.ID); ok {
		return v.(*StoredGraph), true
	}
	if _, ok := s.st.Get(meta.ID); !ok {
		return nil, false
	}
	sg := &StoredGraph{ID: meta.ID, Name: meta.Name, Digest: meta.Digest, N: meta.N, M: meta.M, svc: s}
	sg.lastAccess.Store(s.accessClock.Add(1))
	s.handles.Store(meta.ID, sg)
	return sg, true
}

// Graphs lists the stored graphs in first-seen order.
func (s *Service) Graphs() []*StoredGraph {
	metas := s.st.List()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredGraph, 0, len(metas))
	for _, meta := range metas {
		if sg, ok := s.handleLocked(meta); ok {
			out = append(out, sg)
		}
	}
	return out
}

// GraphCount returns the number of stored graphs.
func (s *Service) GraphCount() int {
	return s.st.Len()
}

// syncRecency replays the handles' access stamps into the storage
// engine's LRU, oldest first, so the store's eviction order matches what
// queries actually touched. Queries stamp handles instead of calling
// st.Get (a mutex per query); this reconciliation runs only right before
// a Put that may evict — loads are rare, so an O(G log G) sort over at
// most MaxGraphs handles is free.
func (s *Service) syncRecency() {
	if s.cfg.MaxGraphs < 0 || s.st.Len() < s.cfg.MaxGraphs {
		return // no eviction possible; skip the replay
	}
	type stamped struct {
		id    string
		stamp int64
	}
	var hs []stamped
	s.handles.Range(func(k, v any) bool {
		hs = append(hs, stamped{k.(string), v.(*StoredGraph).lastAccess.Load()})
		return true
	})
	sort.Slice(hs, func(i, j int) bool { return hs[i].stamp < hs[j].stamp })
	for _, h := range hs {
		s.st.Get(h.id)
	}
}

func (s *Service) store(name string, g *graph.Graph) (*StoredGraph, error) {
	// The replica gate sits before dedupe on purpose: even an idempotent
	// re-load should steer the client at the primary — a replica's store
	// only ever advances through the replication feed.
	if err := s.notPrimary(); err != nil {
		return nil, err
	}
	digest := store.DigestGraph(g)
	id := "g-" + digest[:12]
	if sg, ok, err := s.dedupe(id, digest); ok || err != nil {
		return sg, err
	}
	// The degraded gate sits after dedupe: re-loading a graph the store
	// already holds performs no write, so it stays allowed in read-only
	// mode (idempotent loads are how clients re-resolve IDs).
	if err := s.writable(); err != nil {
		return nil, err
	}
	// The Put — a snapshot write plus fsyncs on the durable backend —
	// runs outside s.mu so concurrent queries never stall behind a load.
	// Two racing loads of the same content are resolved below: the loser
	// dedupes onto the winner's entry.
	eng := dynamic.FromGraph(g)
	meta := store.Meta{ID: id, Name: name, Digest: digest, N: g.N(), M: g.M()}
	v0 := store.Version{Version: 0, Digest: digest, N: g.N(), M: g.M(), Components: eng.Components()}
	s.syncRecency()
	evicted, err := s.st.Put(meta, g, v0)
	if err != nil {
		if sg, ok, derr := s.dedupe(id, digest); ok || derr != nil {
			return sg, derr // a concurrent load won the Put race
		}
		// Not a lost race: the storage engine failed a durable write.
		// Latch read-only mode so subsequent mutations fail fast; the
		// probe loop lifts it once the store writes again.
		s.enterDegraded(fmt.Errorf("store put %s: %w", id, err))
		return nil, fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, eid := range evicted {
		s.handles.Delete(eid)
	}
	sg, ok := s.handleLocked(meta)
	if !ok {
		// Evicted again before the handle landed — possible only under
		// MaxGraphs pressure from concurrent loads.
		return nil, fmt.Errorf("service: graph %s evicted under store pressure: %w", id, ErrNotFound)
	}
	// Reuse the engine the digest pass already built (under the handle
	// lock: the handle may already be visible to concurrent appends).
	sg.mu.Lock()
	if sg.eng == nil {
		sg.eng = eng
	}
	sg.mu.Unlock()
	s.notifyPulse()
	return sg, nil
}

// dedupe resolves a content address against the store: ok means the
// graph already exists and sg is its handle. The ID is only a 48-bit
// digest prefix; dedupe requires the full digest to match, otherwise a
// prefix collision would silently answer queries about a different
// graph.
func (s *Service) dedupe(id, digest string) (*StoredGraph, bool, error) {
	meta, ok := s.st.Get(id)
	if !ok {
		return nil, false, nil
	}
	if meta.Digest != digest {
		return nil, false, fmt.Errorf("service: graph ID %s collides with a different graph (digest %s vs %s)", id, digest, meta.Digest)
	}
	sg, err := s.Graph(id)
	if err != nil {
		return nil, false, nil // evicted in the meantime; treat as absent
	}
	return sg, true, nil
}

// SolveSpec names one solve: which stored graph (at which version), which
// algorithm, and the configuration that (with the version digest) keys
// the labeling cache.
type SolveSpec struct {
	// GraphID is a StoredGraph.ID.
	GraphID string
	// Version selects the graph version: a retained version number, or
	// negative for "latest at resolution time". Version 0 is the base
	// snapshot, so the zero value of SolveSpec pins the base — HTTP
	// handlers default an absent version parameter to LatestVersion.
	Version int
	// Algo is a registered algorithm name (see algo.Names).
	Algo string
	// Lambda, Seed, Memory are the algo.Options fields that affect the
	// labeling (Workers never does, so it is not part of the cache key).
	Lambda float64
	Seed   uint64
	Memory int
	// Workers overrides the service-wide SimWorkers for this solve.
	Workers int
}

// cacheKey canonicalizes the spec into the fixed-size key form: options
// the algorithm ignores (the baselines' seed, wcc's memory, sublinear's
// λ, everyone's workers) are zeroed — via the memoized canonicalization
// table, not a registry call — so equivalent requests share one labeling
// instead of re-running the solve and splitting LRU slots. The digest is
// a VERSION digest, never a bare graph ID: two versions of the same
// graph chain different digests, so a stale labeling can never answer a
// query for a newer version — there is simply no key collision to
// exploit. ok=false means the algorithm is not registered.
func (s *Service) cacheKey(digest [sha256Len]byte, spec SolveSpec) (labelingKey, bool) {
	ce, ok := s.canon[spec.Algo]
	if !ok {
		return labelingKey{}, false
	}
	k := labelingKey{digest: digest, algo: ce.idx}
	if ce.reads&algo.ReadsSeed != 0 {
		k.seed = spec.Seed
	}
	if ce.reads&algo.ReadsLambda != 0 {
		k.lambda = spec.Lambda
	}
	if ce.reads&algo.ReadsMemory != 0 {
		k.memory = spec.Memory
	}
	return k, true
}

// Lookup returns the labeling for spec without running any algorithm.
// The bool reports whether one was available: cached directly, or
// derivable by fast-forwarding a cached labeling of an earlier retained
// version across the appended batches (an incremental merge, not a
// solve). The hit path allocates nothing.
//
//wcc:hotpath
func (s *Service) Lookup(spec SolveSpec) (*Labeling, bool, error) {
	if err := validateSpec(spec); err != nil {
		return nil, false, err
	}
	sg, err := s.Graph(spec.GraphID)
	if err != nil {
		return nil, false, err
	}
	for {
		ref, err := sg.resolveVersion(spec.Version)
		if err != nil {
			return nil, false, err
		}
		key, ok := s.cacheKey(ref.key, spec)
		if !ok {
			_, err := algo.Get(spec.Algo) // canonical unknown-algorithm error
			return nil, false, err
		}
		if l, ok := s.cache.get(key); ok {
			return l, true, nil
		}
		if l, ok := s.fastForward(sg, ref, spec); ok {
			return l, true, nil
		}
		if spec.Version >= 0 {
			return nil, false, nil
		}
		// A latest-version query can lose a race with a burst of appends:
		// by the time the cache was probed, eviction pressure from the
		// newer versions' forwarded labelings may have dropped every
		// labeling at or below the version this lookup resolved. The
		// append path caches a version's labelings before publishing its
		// window, so retrying against the advanced latest finds them;
		// versions only grow, so the loop terminates as soon as the
		// window stops moving.
		cur, err := sg.resolveVersion(-1)
		if err != nil || cur.info.Version == ref.info.Version {
			return nil, false, nil
		}
	}
}

// Solve returns the labeling for spec, running the algorithm only on a
// cache miss. It is safe for concurrent use; concurrent misses on the
// same key may both run the algorithm, but determinism makes the results
// identical and the second insert idempotent.
func (s *Service) Solve(spec SolveSpec) (*Labeling, error) {
	l, _, err := s.solve(spec)
	return l, err
}

// validateSpec rejects option values that would poison the cache: a NaN
// lambda compares unequal to itself, so a labeling keyed under it could
// never be looked up again — and, worse, never deleted, which would turn
// the eviction scan into a livelock once it became the oldest entry.
// JSON cannot carry NaN, but query parameters (strconv.ParseFloat
// accepts "NaN") and library callers can.
func validateSpec(spec SolveSpec) error {
	if spec.Lambda != spec.Lambda {
		return fmt.Errorf("service: lambda must not be NaN")
	}
	return nil
}

// solve also reports whether the labeling came from the cache (directly
// or by incremental fast-forward — either way no algorithm ran).
func (s *Service) solve(spec SolveSpec) (*Labeling, bool, error) {
	if err := validateSpec(spec); err != nil {
		return nil, false, err
	}
	sg, err := s.Graph(spec.GraphID)
	if err != nil {
		return nil, false, err
	}
	a, err := algo.Get(spec.Algo)
	if err != nil {
		return nil, false, err
	}
	ref, err := sg.resolveVersion(spec.Version)
	if err != nil {
		return nil, false, err
	}
	key, ok := s.cacheKey(ref.key, spec)
	if !ok {
		return nil, false, fmt.Errorf("service: algorithm %q not in canonicalization table", spec.Algo)
	}
	if l, ok := s.cache.get(key); ok {
		s.counters.cacheHits.Add(1)
		return l, true, nil
	}
	if l, ok := s.fastForward(sg, ref, spec); ok {
		s.counters.cacheHits.Add(1)
		return l, true, nil
	}
	s.counters.cacheMisses.Add(1)

	workers := spec.Workers
	if workers == 0 {
		workers = s.cfg.SimWorkers
	}
	opts := algo.Options{
		Lambda: spec.Lambda, Seed: spec.Seed, Workers: workers, Memory: spec.Memory,
	}
	res, err := s.find(a, sg, ref.info.Version, opts)
	if err != nil {
		return nil, false, err
	}
	s.counters.solves.Add(1)

	// Echo the canonical configuration, not the raw request: the labeling
	// is shared by every equivalent spec (e.g. any seed for a baseline),
	// so request-specific values would misreport later cache hits.
	canon := s.canon[spec.Algo].reads.Canonical(opts)
	l := &Labeling{
		GraphID:   sg.ID,
		Version:   ref.info.Version,
		Algo:      spec.Algo,
		Seed:      canon.Seed,
		Lambda:    canon.Lambda,
		Memory:    canon.Memory,
		Rounds:    res.Rounds,
		PeakEdges: res.PeakEdges,
		key:       key,
		partition: newPartition(res.Labels, graph.ComponentSizes(res.Labels, res.Components)),
	}
	if err := s.internLabeling(l); err != nil {
		return nil, false, err
	}
	return l, false, nil
}

// internLabeling caches l unless it contradicts the partition another
// configuration already holds for the same version. Every exact
// algorithm yields the same partition, so a second configuration solved
// (or forwarded) at a version is a free differential check against the
// first: if the two group the vertices alike, l switches to the held
// partition and the version keeps one; if they differ, one of the two is
// wrong, and l is neither cached nor served — the mismatch is counted,
// logged, and returned. With no partition held at the version, l is
// cached as is and no extra pass runs.
func (s *Service) internLabeling(l *Labeling) error {
	if held := s.cache.partitionAt(l.key.digest); held != nil && held != l.partition {
		if !held.samePartition(l.labels, l.Components) {
			return s.partitionMismatch(fmt.Errorf("%s labeling of graph %s version %d (%d components) contradicts the cached partition (%d components)",
				l.Algo, l.GraphID, l.Version, l.Components, held.Components))
		}
		l.partition = held
	}
	s.cache.put(l)
	return nil
}

// partitionMismatch counts and loudly logs a result that disagrees with
// the connectivity the service already holds, returning the error the
// caller reports instead of serving it.
func (s *Service) partitionMismatch(err error) error {
	s.counters.partitionMismatches.Add(1)
	err = fmt.Errorf("service: partition mismatch, result discarded: %w", err)
	s.cfg.Logf("service: CORRECTNESS BUG: %v", err)
	return err
}

// find runs one algorithm on one retained version, over the store's
// view of it: on the durable backend the snapshot's mapped pages
// (pinned until release) with appended batches as an overlay, on the
// memory backend the resident CSR. Algorithms that scan the view in
// place never make the adjacency heap-resident; the rest materialize
// it for the length of the solve.
func (s *Service) find(a algo.Algorithm, sg *StoredGraph, version int, opts algo.Options) (*algo.Result, error) {
	view, release, err := s.st.View(sg.ID, version)
	if err != nil {
		return nil, fmt.Errorf("service: graph %s version %d no longer retained: %w", sg.ID, version, ErrNotFound)
	}
	defer release()
	return a.Find(view, opts)
}

// errNotSolved marks queries against labelings that are not cached; the
// HTTP layer maps it to 409 so clients know to POST /v1/solve first.
type errNotSolved struct{ spec SolveSpec }

func (e errNotSolved) Error() string {
	return fmt.Sprintf("service: graph %s not solved with algo=%s seed=%d lambda=%g mem=%d (POST /v1/solve first, or the labeling was evicted)",
		e.spec.GraphID, e.spec.Algo, e.spec.Seed, e.spec.Lambda, e.spec.Memory)
}

// IsNotSolved reports whether err is the not-yet-solved query error.
func IsNotSolved(err error) bool {
	_, ok := err.(errNotSolved)
	return ok
}

func (s *Service) cached(spec SolveSpec) (*Labeling, error) {
	s.counters.queries.Add(1)
	l, ok, err := s.Lookup(spec)
	if err != nil {
		return nil, err
	}
	if !ok {
		s.counters.cacheMisses.Add(1)
		return nil, errNotSolved{spec: spec}
	}
	s.counters.cacheHits.Add(1)
	return l, nil
}

// SameComponent answers from the labeling cache in O(1); it never runs an
// algorithm (IsNotSolved errors ask the caller to solve first). The hit
// path performs zero heap allocations — guarded dynamically by
// TestQueryHitPathZeroAllocs and statically by the hotpath analyzer.
//
//wcc:hotpath
func (s *Service) SameComponent(spec SolveSpec, u, v graph.Vertex) (bool, error) {
	l, err := s.cached(spec)
	if err != nil {
		return false, err
	}
	return l.SameComponent(u, v)
}

// ComponentSize answers from the labeling cache in O(1).
//
//wcc:hotpath
func (s *Service) ComponentSize(spec SolveSpec, u graph.Vertex) (int, error) {
	l, err := s.cached(spec)
	if err != nil {
		return 0, err
	}
	return l.ComponentSize(u)
}

// ComponentCount answers from the labeling cache in O(1).
//
//wcc:hotpath
func (s *Service) ComponentCount(spec SolveSpec) (int, error) {
	l, err := s.cached(spec)
	if err != nil {
		return 0, err
	}
	return l.Components, nil
}

// ComponentSizes returns the full size histogram (size, count) of a
// cached labeling in ascending size order, precomputed at solve time.
//
//wcc:hotpath
func (s *Service) ComponentSizes(spec SolveSpec) ([][2]int, error) {
	l, err := s.cached(spec)
	if err != nil {
		return nil, err
	}
	return l.hist, nil
}

// Batch query operations (POST /v1/query/batch). Op names mirror the
// single-query endpoints.
const (
	OpSameComponent  = "same-component"
	OpComponentSize  = "component-size"
	OpComponentCount = "component-count"
)

// BatchQuery is one operation inside a batch request. U and V are
// interpreted per Op (component-count ignores both; component-size reads
// only U); omitted vertices default to 0 and are range-checked like any
// other.
type BatchQuery struct {
	Op string       `json:"op"`
	U  graph.Vertex `json:"u"`
	V  graph.Vertex `json:"v"`
}

// BatchResult answers one BatchQuery. Err is a per-item failure (bad
// vertex, unknown op) — item failures do not abort the batch, so one
// stray vertex in a 1000-query batch costs one error string, not a
// resend.
type BatchResult struct {
	Same       bool
	Size       int
	Components int
	Err        string
}

// Query answers a batch of queries against ONE labeling lookup: the
// graph handle, version resolution, and cache probe are paid once, then
// every operation is an array read. out must have at least len(qs)
// results; the slice is caller-owned so the HTTP layer can pool it. A
// batch against an unsolved configuration fails as a whole with the
// usual not-solved error (there is nothing per-item about it). On
// success the answering labeling is returned so callers can report the
// resolved version. The hit path allocates only for per-item error
// strings.
//
//wcc:hotpath
func (s *Service) Query(spec SolveSpec, qs []BatchQuery, out []BatchResult) (*Labeling, error) {
	if len(out) < len(qs) {
		return nil, fmt.Errorf("service: batch result buffer too small (%d < %d)", len(out), len(qs))
	}
	s.counters.queries.Add(int64(len(qs)))
	s.counters.batchQueries.Add(1)
	l, ok, err := s.Lookup(spec)
	if err != nil {
		return nil, err
	}
	if !ok {
		s.counters.cacheMisses.Add(1)
		return nil, errNotSolved{spec: spec}
	}
	s.counters.cacheHits.Add(1)
	for i := range qs {
		q := &qs[i]
		r := &out[i]
		*r = BatchResult{}
		var qerr error
		switch q.Op {
		case OpSameComponent:
			r.Same, qerr = l.SameComponent(q.U, q.V)
		case OpComponentSize:
			r.Size, qerr = l.ComponentSize(q.U)
		case OpComponentCount:
			r.Components = l.Components
		default:
			qerr = fmt.Errorf("unknown op %q (want %s|%s|%s)", q.Op, OpSameComponent, OpComponentSize, OpComponentCount)
		}
		if qerr != nil {
			r.Err = qerr.Error()
		}
	}
	return l, nil
}
