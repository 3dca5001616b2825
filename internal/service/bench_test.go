package service

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// benchService builds a solved service for the read-path benchmarks: one
// generated graph, one cached labeling, so every benchmarked operation is
// a pure cache hit — the path ISSUE 5's ≥4× scaling target measures.
func benchService(b *testing.B) (*Service, SolveSpec, int) {
	b.Helper()
	s := New(Config{JobWorkers: 1, CacheEntries: 64})
	b.Cleanup(s.Close)
	sg, err := s.Generate("", gen.Spec{Family: "gnd", N: 20000, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "dynamic"}
	if _, err := s.Solve(spec); err != nil {
		b.Fatal(err)
	}
	return s, spec, sg.N
}

// BenchmarkQueryHit is the service-level cache-hit query path under
// parallel load: every iteration is one SameComponent answered from the
// labeling cache. Run with -cpu 8 to see lock contention (or its
// absence); the before/after numbers for PR 5 are recorded in the PR
// description and CHANGES.md.
func BenchmarkQueryHit(b *testing.B) {
	s, spec, n := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seq.Add(1), 0xabcd))
		for pb.Next() {
			u, v := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
			if _, err := s.SameComponent(spec, u, v); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkQueryBatch answers 64 queries per operation through the batch
// API: one labeling lookup amortized over the whole batch, so the
// per-query cost drops well below even the lock-free single-query path.
func BenchmarkQueryBatch(b *testing.B) {
	s, spec, n := benchService(b)
	const batchSize = 64
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seq.Add(1), 0x7777))
		qs := make([]BatchQuery, batchSize)
		out := make([]BatchResult, batchSize)
		for pb.Next() {
			for i := range qs {
				qs[i] = BatchQuery{Op: OpSameComponent, U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
			}
			if _, err := s.Query(spec, qs, out); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestQueryHitPathZeroAllocs is the allocation guard ISSUE 5 asks for:
// the service-level cache-hit path — handle lookup, version resolution,
// key construction, sharded-cache probe, answer — must not touch the
// heap at all, for single queries and for batches (given a caller-owned
// result buffer, as the pooled HTTP layer provides).
func TestQueryHitPathZeroAllocs(t *testing.T) {
	s := New(Config{JobWorkers: 1, CacheEntries: 8})
	defer s.Close()
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "boruvka"}
	if _, err := s.Solve(spec); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.SameComponent(spec, 0, 5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SameComponent hit path: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.ComponentCount(spec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ComponentCount hit path: %.1f allocs/op, want 0", allocs)
	}
	qs := []BatchQuery{
		{Op: OpSameComponent, U: 0, V: 5},
		{Op: OpComponentSize, U: 7},
		{Op: OpComponentCount},
	}
	out := make([]BatchResult, len(qs))
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Query(spec, qs, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("batch hit path: %.1f allocs/op, want 0", allocs)
	}
}

// benchResponseWriter is a header-only ResponseWriter so the HTTP
// benchmark measures the handler path (mux, decode, query, encode), not
// httptest.ResponseRecorder's per-request buffer growth.
type benchResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchResponseWriter) Header() http.Header { return w.h }
func (w *benchResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkHTTPQuery drives GET /v1/query/same-component through the
// real mux and handler with a discarding ResponseWriter: the full
// service-side cost of one query request minus the kernel socket.
func BenchmarkHTTPQuery(b *testing.B) {
	s, spec, n := benchService(b)
	h := NewHandler(s)
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seq.Add(1), 0x1234))
		w := &benchResponseWriter{h: make(http.Header, 4)}
		for pb.Next() {
			u, v := rng.IntN(n), rng.IntN(n)
			req, err := http.NewRequest("GET",
				fmt.Sprintf("/v1/query/same-component?graph=%s&algo=%s&u=%d&v=%d", spec.GraphID, spec.Algo, u, v), nil)
			if err != nil {
				b.Error(err)
				return
			}
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Errorf("status %d", w.status)
				return
			}
		}
	})
}

// BenchmarkAppendForward times the append path's forward step — every
// cached labeling of the parent version carried to the appended one —
// on 1000 cycles of 64 vertices (64000 vertices) with three cached
// configurations sharing one partition. "merge" forwards a batch of 256
// random pairs, which relabels the partition once; "no-merge" forwards
// 256 repeated edges, which shares it. Run with -benchmem: a forward
// that went back to one O(n) relabel per configuration, or relabeled a
// batch that merged nothing, shows up in B/op.
func BenchmarkAppendForward(b *testing.B) {
	s := New(Config{JobWorkers: 1, CacheEntries: 64})
	b.Cleanup(s.Close)
	sg, _ := solvedUnion(b, s, 1000, 64)
	prev := sg.Latest()
	g := sg.Snapshot(0)
	rng := rand.New(rand.NewPCG(3, 9))
	random := make([]graph.Edge, 256)
	for i := range random {
		random[i] = graph.Edge{U: graph.Vertex(rng.IntN(g.N())), V: graph.Vertex(rng.IntN(g.N()))}
	}
	for _, bc := range []struct {
		name  string
		batch []graph.Edge
	}{
		{"merge", random},
		{"no-merge", g.Edges()[:256]},
	} {
		eng := dynamic.FromGraph(g)
		merges := eng.Apply(bc.batch, 0)
		info := VersionInfo{
			Version: prev.Version + 1, Digest: store.ChainDigest(prev.Digest, prev.N, bc.batch),
			N: prev.N, M: prev.M + len(bc.batch), Appended: len(bc.batch),
			Merges: merges, Components: eng.Components(),
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s.forwardCached(prev.Digest, info, bc.batch)
			}
		})
	}
}
