package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/algo"
	"repro/internal/graph"
)

// NewHandler exposes a Service over HTTP+JSON. Routes (all responses are
// JSON objects, typed in wire.go; errors are {"error": "..."} with a
// 4xx/5xx status):
//
//	GET  /healthz                     liveness probe (200 while the process serves)
//	GET  /readyz                      readiness probe (503 while degraded or draining)
//	POST /v1/graphs?name=N            body = edge-list text; stores the graph
//	POST /v1/graphs/generate          {"family","n","d","sizes","seed","name"}
//	GET  /v1/graphs                   list stored graphs
//	GET  /v1/graphs/{id}              one stored graph (latest version)
//	POST /v1/graphs/{id}/edges        body = edge-batch text ("u v" lines);
//	                                  ?grow=1 lets endpoints extend the
//	                                  vertex set; bumps the version and
//	                                  fast-forwards cached labelings
//	GET  /v1/graphs/{id}/versions     retained version window
//	POST /v1/solve                    {"graph","version","algo","lambda","seed",
//	                                   "memory","workers","wait"} → job (or
//	                                   labeling summary when wait=true)
//	GET  /v1/jobs/{id}                job status/result
//	GET  /v1/query/same-component     ?graph=&version=&algo=&seed=&lambda=&memory=&u=&v=
//	GET  /v1/query/component-size     ?...&u=
//	GET  /v1/query/component-count    ?...
//	GET  /v1/query/sizes              ?... size histogram
//	POST /v1/query/batch              {"graph","version","algo","seed","lambda",
//	                                   "memory","queries":[{"op","u","v"},...]}
//	                                  — many queries, ONE labeling lookup
//	GET  /v1/algorithms               registered algorithm names
//	GET  /v1/stats                    service counters + cache occupancy
//
// Query endpoints default to the latest version; pass ?version=K for a
// retained older version. Solve bodies omit "version" (or pass a
// negative) for latest.
//
// The single-query and batch endpoints encode their responses with
// pooled buffers and direct byte appends (no reflection, no per-request
// encoder), and every response carries Content-Length.
//
// Every /v1 request passes through the failure boundary in
// middleware.go: panic recovery (a handler panic is a logged 500, never
// a dropped connection), admission control (MaxInflight concurrent
// requests, a bounded wait queue, 429 + Retry-After beyond it), and a
// per-request deadline. The health probes sit outside admission so
// orchestrators get answers even from a saturated server.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleLoad)
	mux.HandleFunc("POST /v1/graphs/generate", s.handleGenerate)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{id}", s.handleGetGraph)
	mux.HandleFunc("POST /v1/graphs/{id}/edges", s.handleAppend)
	mux.HandleFunc("GET /v1/graphs/{id}/versions", s.handleVersions)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/query/same-component", s.handleSameComponent)
	mux.HandleFunc("GET /v1/query/component-size", s.handleComponentSize)
	mux.HandleFunc("GET /v1/query/component-count", s.handleComponentCount)
	mux.HandleFunc("GET /v1/query/sizes", s.handleSizes)
	mux.HandleFunc("POST /v1/query/batch", s.handleQueryBatch)
	mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"algorithms": algo.Names()})
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)

	api := s.admit(s.withDeadline(mux))
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", s.handleHealthz)
	outer.HandleFunc("GET /readyz", s.handleReadyz)
	outer.Handle("/", api)
	return s.recoverPanics(outer)
}

// bufPool recycles response buffers across requests so the hot query
// endpoints do not grow a fresh encoder buffer per response. Buffers
// that ballooned (a huge sizes histogram) are dropped rather than pinned.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// maxPooledBuf must comfortably cover the largest hot-path response — a
// maxBatchQueries batch encodes to ~115 KiB — or steady max-batch load
// would regrow and drop a buffer per request, defeating the pool.
const maxPooledBuf = 1 << 18

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// writeRaw sends one preserialized JSON response with an explicit
// Content-Length (so keep-alive clients never wait on chunked framing
// for these tiny payloads).
func writeRaw(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) // a failed write means the client left; nothing to report to it
}

// writeJSON marshals v and sends it. Encode failures (only possible for
// programmer-error values, never request data) are logged and surfaced
// as a 500 instead of being silently dropped mid-response — marshaling
// before touching the ResponseWriter is what keeps that option open.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		log.Printf("service: encoding %T response: %v", v, err)
		writeRaw(w, http.StatusInternalServerError, []byte(`{"error":"internal: response encoding failed"}`+"\n"))
		return
	}
	writeRaw(w, status, append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	// Every shed or unavailable response carries Retry-After, so polite
	// clients (wccload, wccstream, anything honoring RFC 9110 §10.2.3)
	// back off instead of hammering an overloaded or degraded server.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"error": err.Error()})
}

// statusFor maps service errors to HTTP statuses: not-solved is a 409
// (solve first), a missing graph/job is a 404 on every endpoint,
// transient overload/shutdown is a 503 (retry), and everything else is
// client-side, a 400.
func statusFor(err error) int {
	if IsNotSolved(err) {
		return http.StatusConflict
	}
	if errors.Is(err, ErrNotFound) {
		return http.StatusNotFound
	}
	if errors.Is(err, ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, ErrNotPrimary) {
		// 421 Misdirected Request: the request is fine, this node is not —
		// it is a read-only replica; the error body names the primary the
		// client should re-aim at.
		return http.StatusMisdirectedRequest
	}
	if errors.Is(err, ErrPrecondition) {
		return http.StatusPreconditionFailed
	}
	return http.StatusBadRequest
}

// errEvicted is the 404 for a graph that vanished mid-request.
func errEvicted(id string) error {
	return fmt.Errorf("service: graph %s evicted: %w", id, ErrNotFound)
}

func (s *Service) handleLoad(w http.ResponseWriter, r *http.Request) {
	// Cap request bodies: a 256 MiB edge list is ~10M edges, far beyond
	// anything the simulator serves interactively. MaxBytesReader (vs a
	// silent LimitReader truncation) makes an oversized upload fail as
	// "request body too large" instead of a misleading parse error.
	sg, err := s.Load(r.URL.Query().Get("name"), http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		status := statusFor(err) // 503 while degraded, 400 otherwise
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	writeGraph(w, sg)
}

func (s *Service) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sg, err := s.Generate(req.Name, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeGraph(w, sg)
}

// writeGraph serves one graph summary, 404ing if it was evicted
// underneath the handler.
func writeGraph(w http.ResponseWriter, sg *StoredGraph) {
	out, ok := graphInfo(sg)
	if !ok {
		writeError(w, http.StatusNotFound, errEvicted(sg.ID))
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	list := s.Graphs()
	out := make([]GraphInfo, 0, len(list))
	for _, sg := range list {
		if g, ok := graphInfo(sg); ok {
			out = append(out, g)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Service) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	sg, err := s.Graph(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeGraph(w, sg)
}

// maxBatchEdges bounds one appended batch; MaxBytesReader bounds the
// request body itself. Oversized batches fail parsing with an explicit
// "more than N edges" error instead of exhausting memory.
const maxBatchEdges = 1 << 20

func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request) {
	sg, err := s.Graph(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	grow := false
	if v := r.URL.Query().Get("grow"); v != "" {
		if grow, err = strconv.ParseBool(v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad grow: %w", err))
			return
		}
	}
	latest := sg.Latest()
	if latest.Digest == "" {
		writeError(w, http.StatusNotFound, errEvicted(sg.ID))
		return
	}
	// The parser enforces the endpoint range: the current vertex count
	// normally, the configured ceiling when growing. Append revalidates
	// under the graph lock (a concurrent append may have grown N), so a
	// benign race here can only produce a clean 400, never a bad accept.
	maxVertex := latest.N
	if grow {
		maxVertex = s.cfg.MaxVertices
		if maxVertex < 0 {
			maxVertex = int(^uint(0) >> 1) // unlimited config; ReadEdgeBatch caps it at the Vertex range
		}
	}
	maxEdges := maxBatchEdges
	if s.cfg.MaxEdges >= 0 {
		remaining := s.cfg.MaxEdges - latest.M
		if remaining <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: graph %s is at the configured edge limit %d; no further appends", sg.ID, s.cfg.MaxEdges))
			return
		}
		if remaining < maxEdges {
			maxEdges = remaining
		}
	}
	batch, err := graph.ReadEdgeBatch(http.MaxBytesReader(w, r.Body, 64<<20), maxVertex, maxEdges)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	// An If-Match header (or ?expect=) carries the digest of the version
	// the client observed, making the append conditional — and therefore
	// safely retryable: a retry of a batch that actually landed comes back
	// 200 with applied=false instead of appending twice; a lost race
	// against another writer comes back 412 instead of interleaving.
	expect := r.URL.Query().Get("expect")
	if m := r.Header.Get("If-Match"); m != "" {
		expect = strings.Trim(m, `"`)
	}
	info, applied, err := s.AppendExpect(sg.ID, batch, grow, expect)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResult{VersionInfo: info, Graph: sg.ID, Applied: applied})
}

func (s *Service) handleVersions(w http.ResponseWriter, r *http.Request) {
	sg, err := s.Graph(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	vers := sg.Versions()
	if len(vers) == 0 {
		writeError(w, http.StatusNotFound, errEvicted(sg.ID))
		return
	}
	writeJSON(w, http.StatusOK, VersionList{
		Graph: sg.ID, Latest: vers[len(vers)-1].Version,
		MaxVersionGap: s.cfg.MaxVersionGap, Versions: vers,
	})
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := req.spec(s.cfg.DefaultAlgo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, jobInfo(job.Snapshot()))
		return
	}
	snap, err := s.WaitJob(r.Context(), job)
	if err != nil {
		// Client gone or server draining: stop holding the handler; the
		// job itself continues and stays pollable via /v1/jobs/{id}.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("wait aborted (%w); poll /v1/jobs/%s", err, job.ID))
		return
	}
	if snap.Status == JobFailed {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("solve failed: %s", snap.Err))
		return
	}
	writeJSON(w, http.StatusOK, labelingInfo(snap.Result, snap.Cached))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(job.Snapshot()))
}

// querySpec decodes the common query parameters shared by the /v1/query
// endpoints. The caller parses the URL query once and shares it with
// queryVertex — url.Values allocates, so parsing it per parameter would
// triple that cost on the hottest endpoint. An absent ?algo= selects
// the configured default algorithm (Config.DefaultAlgo).
func (s *Service) querySpec(q url.Values) (SolveSpec, error) {
	spec := SolveSpec{GraphID: q.Get("graph"), Version: -1, Algo: q.Get("algo")}
	if spec.GraphID == "" {
		return spec, fmt.Errorf("missing ?graph=")
	}
	if spec.Algo == "" {
		spec.Algo = s.cfg.DefaultAlgo
	}
	var err error
	if v := q.Get("version"); v != "" {
		if spec.Version, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("bad version: %w", err)
		}
	}
	if v := q.Get("seed"); v != "" {
		if spec.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return spec, fmt.Errorf("bad seed: %w", err)
		}
	}
	if v := q.Get("lambda"); v != "" {
		if spec.Lambda, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("bad lambda: %w", err)
		}
	}
	if v := q.Get("memory"); v != "" {
		if spec.Memory, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("bad memory: %w", err)
		}
	}
	if err := validateAlgoOptions(spec.Lambda, spec.Memory); err != nil {
		return spec, err
	}
	return spec, nil
}

// validateAlgoOptions rejects algorithm option values that are never
// meaningful, at the HTTP boundary, before they reach algo.Options or a
// cache key: strconv happily parses "-1" and "NaN", and an unvalidated
// NaN λ or negative memory would mint cache entries (and run solves)
// for configurations no algorithm defines.
func validateAlgoOptions(lambda float64, memory int) error {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return fmt.Errorf("bad lambda: must be a finite non-negative number (got %v)", lambda)
	}
	if memory < 0 {
		return fmt.Errorf("bad memory: must be non-negative (got %d)", memory)
	}
	return nil
}

func queryVertex(q url.Values, key string) (graph.Vertex, error) {
	v := q.Get(key)
	if v == "" {
		return 0, fmt.Errorf("missing ?%s=", key)
	}
	id, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", key, err)
	}
	return graph.Vertex(id), nil
}

func (s *Service) handleSameComponent(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, err := s.querySpec(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := queryVertex(q, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := queryVertex(q, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	same, err := s.SameComponent(spec, u, v)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	bp := getBuf()
	b := append(*bp, `{"u":`...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, `,"same":`...)
	b = strconv.AppendBool(b, same)
	b = append(b, '}', '\n')
	writeRaw(w, http.StatusOK, b)
	*bp = b
	putBuf(bp)
}

func (s *Service) handleComponentSize(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, err := s.querySpec(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := queryVertex(q, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	size, err := s.ComponentSize(spec, u)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	bp := getBuf()
	b := append(*bp, `{"u":`...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, '}', '\n')
	writeRaw(w, http.StatusOK, b)
	*bp = b
	putBuf(bp)
}

func (s *Service) handleComponentCount(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, err := s.querySpec(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	count, err := s.ComponentCount(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	bp := getBuf()
	b := append(*bp, `{"components":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, '}', '\n')
	writeRaw(w, http.StatusOK, b)
	*bp = b
	putBuf(bp)
}

func (s *Service) handleSizes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, err := s.querySpec(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hist, err := s.ComponentSizes(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	bp := getBuf()
	b := append(*bp, `{"sizes":[`...)
	for i, sc := range hist {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"size":`...)
		b = strconv.AppendInt(b, int64(sc[0]), 10)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(sc[1]), 10)
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	writeRaw(w, http.StatusOK, b)
	*bp = b
	putBuf(bp)
}

// maxBatchQueries bounds one batch request; bigger batches gain nothing
// (the lookup is already amortized) and would pin oversized buffers.
const maxBatchQueries = 8192

// batchScratch recycles the decoded-query and result slices across batch
// requests, so a steady batch load settles into zero slice growth.
type batchScratch struct {
	qs  []BatchQuery
	out []BatchResult
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// putBatchScratch returns scratch to the pool unless an abusive request
// (rejected or not) ballooned its slices past the batch limit — pooling
// those would pin the worst request's memory for the process lifetime,
// the same policy putBuf applies to byte buffers.
func putBatchScratch(scratch *batchScratch) {
	if cap(scratch.qs) > maxBatchQueries || cap(scratch.out) > maxBatchQueries {
		return
	}
	batchPool.Put(scratch)
}

// handleQueryBatch answers many queries in one request against ONE
// labeling lookup — the network round trip, handler dispatch, graph
// resolution, and cache probe amortize across the whole batch. Per-item
// failures (bad vertex, unknown op) are reported inline as
// {"error":...} results; only batch-level problems (unknown graph,
// unsolved configuration, malformed body) fail the request.
func (s *Service) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	scratch := batchPool.Get().(*batchScratch)
	defer putBatchScratch(scratch)
	// The batch body is a solve request (its workers and wait keys have
	// no effect here) plus the queries.
	req := struct {
		SolveRequest
		Queries []BatchQuery `json:"queries"`
	}{Queries: scratch.qs[:0]}
	// 1 MiB comfortably fits a maxBatchQueries batch (~40 bytes/query)
	// while bounding how far a flood of tiny queries can grow the decode
	// slice before the count check below rejects it.
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	scratch.qs = req.Queries[:0]
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch (want \"queries\": [{\"op\":...},...])"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d queries exceeds the limit %d", len(req.Queries), maxBatchQueries))
		return
	}
	spec, err := req.spec(s.cfg.DefaultAlgo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cap(scratch.out) < len(req.Queries) {
		scratch.out = make([]BatchResult, len(req.Queries))
	}
	out := scratch.out[:len(req.Queries)]
	l, err := s.Query(spec, req.Queries, out)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}

	bp := getBuf()
	b := append(*bp, `{"graph":"`...)
	b = append(b, l.GraphID...)
	b = append(b, `","version":`...)
	b = strconv.AppendInt(b, int64(l.Version), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(out)), 10)
	b = append(b, `,"results":[`...)
	for i := range out {
		if i > 0 {
			b = append(b, ',')
		}
		r := &out[i]
		if r.Err != "" {
			b = append(b, `{"error":`...)
			b = strconv.AppendQuote(b, r.Err)
			b = append(b, '}')
			continue
		}
		switch req.Queries[i].Op {
		case OpSameComponent:
			b = append(b, `{"same":`...)
			b = strconv.AppendBool(b, r.Same)
		case OpComponentSize:
			b = append(b, `{"size":`...)
			b = strconv.AppendInt(b, int64(r.Size), 10)
		case OpComponentCount:
			b = append(b, `{"components":`...)
			b = strconv.AppendInt(b, int64(r.Components), 10)
		}
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	writeRaw(w, http.StatusOK, b)
	*bp = b
	putBuf(bp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.Counters()
	cfg := s.Config()
	hitRatio := 0.0
	if looked := c.CacheHits + c.CacheMisses; looked > 0 {
		hitRatio = float64(c.CacheHits) / float64(looked)
	}
	cachedLabelings := s.CachedLabelings()
	partitions, partitionBytes := s.cache.partitions()
	degraded, degradedCause := s.Degraded()
	inflight := 0
	if s.slots != nil {
		inflight = len(s.slots)
	}
	stats := map[string]any{
		"graphsLoaded":      c.GraphsLoaded,
		"graphsGenerated":   c.GraphsGenerated,
		"solves":            c.Solves,
		"cacheHits":         c.CacheHits,
		"cacheMisses":       c.CacheMisses,
		"cacheHitRatio":     hitRatio,
		"queries":           c.Queries,
		"batchQueries":      c.BatchQueries,
		"jobsSubmitted":     c.JobsSubmitted,
		"jobsDone":          c.JobsDone,
		"jobsFailed":        c.JobsFailed,
		"edgeBatches":       c.EdgeBatches,
		"edgesAppended":     c.EdgesAppended,
		"incrementalMerges": c.IncrementalMerges,
		"cachedLabelings":   cachedLabelings,
		"graphs":            s.GraphCount(),
		// One partition per version, shared by its configurations and,
		// across appends that merged nothing, by consecutive versions:
		// how many distinct ones the cache holds, the bytes of their
		// labels and sizes, and the forward/share/mismatch counters.
		"partitions": map[string]any{
			"distinct":   partitions,
			"bytes":      partitionBytes,
			"relabels":   c.PartitionRelabels,
			"shares":     c.PartitionShares,
			"mismatches": c.PartitionMismatches,
		},
		// Per-shard cache occupancy: a single hot stripe means the key
		// mix defeats the shard hash; uniformly full stripes mean
		// -cache-entries is the bottleneck.
		"cache": map[string]any{
			"entries":  cachedLabelings,
			"capacity": s.cache.capacity(),
			"shards":   s.CacheShardOccupancy(),
		},
		// The failure model's runtime state: whether the service is in
		// degraded read-only mode (and why), plus the resilience counters
		// — recovered panics, shed requests, retried store writes — and
		// the live admission occupancy.
		"failure": map[string]any{
			"degraded":          degraded,
			"degradedCause":     degradedCause,
			"degradedEvents":    c.DegradedEvents,
			"panicsRecovered":   c.PanicsRecovered,
			"admissionRejected": c.AdmissionRejected,
			"storeRetries":      c.StoreRetries,
			"inflight":          inflight,
			"queued":            s.queued.Load(),
		},
		// The active limits (post-default), so operators can read the
		// effective policy off a running server instead of its flags.
		"limits": map[string]any{
			"defaultAlgo":    cfg.DefaultAlgo,
			"maxVertices":    cfg.MaxVertices,
			"maxEdges":       cfg.MaxEdges,
			"maxGraphs":      cfg.MaxGraphs,
			"cacheEntries":   s.cache.capacity(),
			"jobHistory":     cfg.JobHistory,
			"maxVersionGap":  cfg.MaxVersionGap,
			"queueDepth":     cfg.QueueDepth,
			"jobWorkers":     cfg.JobWorkers,
			"maxInflight":    cfg.MaxInflight,
			"admissionQueue": cfg.AdmissionQueue,
			"requestTimeout": cfg.RequestTimeout.String(),
			"appendRetries":  cfg.AppendRetries,
		},
		"durable": cfg.DataDir != "",
	}
	// The replication block, when a repl layer (primary feed or replica
	// tailer) is attached: role, per-graph lag, and the shipped/verified/
	// rejected record counters the chaos sweeps assert on.
	if rs, ok := s.replStatus(); ok {
		stats["repl"] = rs
	}
	writeJSON(w, http.StatusOK, stats)
}
