package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// twoComponents is a 10-vertex graph with components {0..5} and {6..9}.
const twoComponents = "10 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n6 7\n7 8\n8 9\n"

func newTestService(t *testing.T) *Service {
	t.Helper()
	s := New(Config{JobWorkers: 1, CacheEntries: 4})
	t.Cleanup(s.Close)
	return s
}

// TestLoadOversizedBodyKeepsMaxBytesError: handleLoad and handleAppend
// answer 413 only if the *http.MaxBytesError of their body reader
// survives the parse. The 1 KiB cut lands at every offset of an edge
// line across the bodies; wherever it falls, the partial line in front
// of it must not be parsed into a different error (or an edge). The
// append body is cut by a MaxBytesReader of the test's own, inside the
// handler's larger one, which passes the error through unchanged.
func TestLoadOversizedBodyKeepsMaxBytesError(t *testing.T) {
	s := newTestService(t)
	h := NewHandler(s)
	target, err := s.Load("target", strings.NewReader("2000 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	var edges strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&edges, "%d %d\n", i, 1000+i)
	}
	for pad := 0; pad < 12; pad++ {
		lines := "#" + strings.Repeat("x", pad) + "\n" + edges.String()
		r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader("2000 400\n"+lines)), 1<<10)
		_, err := s.Load("big", r)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Fatalf("pad %d: Load error %v does not carry *http.MaxBytesError", pad, err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+target.ID+"/edges", nil)
		req.Body = http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(lines)), 1<<10)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("pad %d: append answered %d %s, want 413", pad, rec.Code, rec.Body)
		}
	}
	if v := target.LatestVersion(); v != 0 {
		t.Fatalf("cut append bodies created version %d", v)
	}
}

func TestLoadDedupesByDigest(t *testing.T) {
	s := newTestService(t)
	a, err := s.Load("first", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Load("second", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || a != b {
		t.Fatalf("same edge list stored twice: %q vs %q", a.ID, b.ID)
	}
	if a.N != 10 || a.M != 9 {
		t.Fatalf("stored n=%d m=%d", a.N, a.M)
	}
	if len(s.Graphs()) != 1 {
		t.Fatalf("store has %d graphs, want 1", len(s.Graphs()))
	}
}

func TestGenerateMatchesCLISpec(t *testing.T) {
	s := newTestService(t)
	sg, err := s.Generate("", gen.Spec{Family: "union", Sizes: []int{20, 12}, D: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The service must build the exact graph cmd/wccgen would emit for
	// the same parameters: same digest as an independent Spec build.
	g, err := gen.Spec{Family: "union", Sizes: []int{20, 12}, D: 6, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Load("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ID != sg.ID {
		t.Fatalf("generate and load of the same spec diverge: %q vs %q", sg.ID, loaded.ID)
	}
}

func TestSolveCachesByConfiguration(t *testing.T) {
	s := newTestService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 1}
	l1, err := s.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Components != 2 {
		t.Fatalf("components = %d, want 2", l1.Components)
	}
	l2, err := s.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if l2 != l1 {
		t.Fatal("second identical solve did not come from the cache")
	}
	if c := s.Counters(); c.Solves != 1 || c.CacheHits != 1 || c.CacheMisses != 1 {
		t.Fatalf("counters after repeat solve: %+v", c)
	}
	// A different seed is a different labeling lineage for wcc.
	if _, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Solves != 2 {
		t.Fatalf("distinct seed should re-run: %+v", c)
	}
	// Workers is not part of the key: results are worker-invariant.
	if _, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 1, Workers: -1}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Solves != 2 {
		t.Fatalf("workers must not affect the cache key: %+v", c)
	}
	// The baselines ignore the seed entirely, so the key canonicalizes it
	// away: a seed-2 boruvka request reuses the seed-1 labeling.
	if _, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "boruvka", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "boruvka", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Solves != 3 {
		t.Fatalf("baseline seed must not split the cache: %+v", c)
	}
}

func TestQueriesAnswerFromCacheOnly(t *testing.T) {
	s := newTestService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "boruvka"}
	if _, err := s.SameComponent(spec, 0, 1); !IsNotSolved(err) {
		t.Fatalf("query before solve: err = %v, want not-solved", err)
	}
	if _, err := s.Solve(spec); err != nil {
		t.Fatal(err)
	}
	base := s.Counters().Solves
	for _, tc := range []struct {
		u, v graph.Vertex
		same bool
	}{{0, 5, true}, {0, 3, true}, {6, 9, true}, {0, 6, false}, {5, 9, false}} {
		same, err := s.SameComponent(spec, tc.u, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if same != tc.same {
			t.Errorf("same(%d,%d) = %v, want %v", tc.u, tc.v, same, tc.same)
		}
	}
	if size, err := s.ComponentSize(spec, 2); err != nil || size != 6 {
		t.Errorf("ComponentSize(2) = %d, %v; want 6", size, err)
	}
	if size, err := s.ComponentSize(spec, 8); err != nil || size != 4 {
		t.Errorf("ComponentSize(8) = %d, %v; want 4", size, err)
	}
	if count, err := s.ComponentCount(spec); err != nil || count != 2 {
		t.Errorf("ComponentCount = %d, %v; want 2", count, err)
	}
	hist, err := s.ComponentSizes(spec)
	if err != nil || len(hist) != 2 || hist[0] != [2]int{4, 1} || hist[1] != [2]int{6, 1} {
		t.Errorf("ComponentSizes = %v, %v", hist, err)
	}
	if got := s.Counters().Solves; got != base {
		t.Fatalf("queries re-ran the algorithm: solves %d -> %d", base, got)
	}
	// Out-of-range vertices are rejected, not mislabeled.
	if _, err := s.SameComponent(spec, 0, 10); err == nil {
		t.Error("want error for out-of-range vertex")
	}
	if _, err := s.ComponentSize(spec, -1); err == nil {
		t.Error("want error for negative vertex")
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTestService(t) // CacheEntries: 4
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		if _, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CachedLabelings(); got != 4 {
		t.Fatalf("cache holds %d labelings, want capacity 4", got)
	}
	// Seed 0 was the least recently used: evicted, so the query errors.
	if _, err := s.ComponentCount(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 0}); !IsNotSolved(err) {
		t.Fatalf("evicted labeling: err = %v, want not-solved", err)
	}
	// Seed 4 is still resident.
	if count, err := s.ComponentCount(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 4}); err != nil || count != 2 {
		t.Fatalf("resident labeling: count=%d err=%v", count, err)
	}
}

func TestAsyncJobs(t *testing.T) {
	s := newTestService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "labelprop"}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := job.Wait()
	if snap.Status != JobDone {
		t.Fatalf("job status %s (err %q)", snap.Status, snap.Err)
	}
	if snap.Result.Components != 2 {
		t.Fatalf("job result components = %d", snap.Result.Components)
	}
	if snap.Cached {
		t.Fatal("first job should have executed, not hit the cache")
	}
	// Same spec again: the job completes via the cache.
	job2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap2 := job2.Wait(); snap2.Status != JobDone || !snap2.Cached {
		t.Fatalf("repeat job: status=%s cached=%v", snap2.Status, snap2.Cached)
	}
	if c := s.Counters(); c.Solves != 1 || c.JobsDone != 2 {
		t.Fatalf("counters: %+v", c)
	}
	// Lookups by ID and validation errors.
	if _, err := s.Job(job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job("job-999"); err == nil {
		t.Error("want error for unknown job")
	}
	if _, err := s.Submit(SolveSpec{GraphID: "g-nope", Algo: "wcc"}); err == nil {
		t.Error("want error for unknown graph")
	}
	if _, err := s.Submit(SolveSpec{GraphID: sg.ID, Algo: "nosuch"}); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestMixedConcurrentWorkload(t *testing.T) {
	// Many graphs × algorithms × seeds in flight at once: the first layer
	// where concurrent mixed workloads exercise the simulator together.
	s := New(Config{JobWorkers: 4, CacheEntries: 64})
	defer s.Close()
	var specs []SolveSpec
	for i, family := range []string{"cycle", "grid", "star"} {
		sg, err := s.Generate("", gen.Spec{Family: family, N: 40, D: 5, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"wcc", "sublinear", "hashtomin", "boruvka"} {
			for seed := uint64(1); seed <= 2; seed++ {
				spec := SolveSpec{GraphID: sg.ID, Algo: name, Seed: seed}
				if name == "wcc" {
					spec.Lambda = 0.3
				}
				specs = append(specs, spec)
			}
		}
	}
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	for i, job := range jobs {
		if snap := job.Wait(); snap.Status != JobDone {
			t.Fatalf("job %d (%+v): %s %s", i, specs[i], snap.Status, snap.Err)
		}
	}
	for _, spec := range specs {
		count, err := s.ComponentCount(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if count != 1 {
			t.Fatalf("%+v: %d components, want 1 (all families connected)", spec, count)
		}
	}
	// wcc and sublinear consume the seed (2 lineages per graph each); the
	// canonical cache key collapses both seeds of the seed-blind
	// hashtomin and boruvka into one solve per graph: 3 × (2+2+1+1) = 18
	// distinct keys. Concurrent misses on the same key may legitimately
	// both execute (solve releases the lock during Find), so the counter
	// is bounded by the submission count, not pinned to 18.
	if c := s.Counters(); c.Solves < 18 || c.Solves > int64(len(specs)) {
		t.Fatalf("solves = %d, want between 18 canonical configurations and %d submissions", c.Solves, len(specs))
	}
}

func TestWaitJobAbortsOnDrain(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	defer s.Close()
	// A job that never completes stands in for a deep queue; draining
	// must release the waiter with ErrUnavailable, and a canceled
	// context must release it with the context error.
	stuck := &Job{done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WaitJob(ctx, stuck); err == nil {
		t.Fatal("canceled context should abort the wait")
	}
	s.StartDrain()
	if _, err := s.WaitJob(context.Background(), stuck); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("drained wait: err = %v, want ErrUnavailable", err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	sg, err := s.Generate("", gen.Spec{Family: "cycle", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(SolveSpec{GraphID: sg.ID, Algo: "wcc"}); err == nil {
		t.Fatal("submit after Close should fail")
	}
	s.Close() // idempotent
}

func TestLimitsRejectOversizedRequests(t *testing.T) {
	s := New(Config{JobWorkers: 1, MaxVertices: 1000, MaxEdges: 10000})
	defer s.Close()
	// A tiny header declaring more vertices than the limit is rejected
	// before the parser allocates for it.
	if _, err := s.Load("big", strings.NewReader("2000 0\n")); err == nil {
		t.Error("want error for header past MaxVertices")
	}
	// Spec parameters drive the cost, not the request size: a clique of
	// 200 vertices is ~19900 edges > 10000.
	if _, err := s.Generate("", gen.Spec{Family: "clique", N: 200}); err == nil {
		t.Error("want error for spec past MaxEdges")
	}
	if _, err := s.Generate("", gen.Spec{Family: "hypercube", N: 62}); err == nil {
		t.Error("want error for overflowing hypercube spec")
	}
	// Within limits everything still works.
	if _, err := s.Load("ok", strings.NewReader(twoComponents)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("", gen.Spec{Family: "clique", N: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s := New(Config{JobWorkers: 1, JobHistory: 2})
	defer s.Close()
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(0); seed < 4; seed++ {
		job, err := s.Submit(SolveSpec{GraphID: sg.ID, Algo: "labelprop", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		job.Wait()
		ids = append(ids, job.ID)
	}
	// Only the two most recent completed jobs remain queryable.
	for _, id := range ids[:2] {
		if _, err := s.Job(id); err == nil {
			t.Errorf("job %s should have been retired", id)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Job(id); err != nil {
			t.Errorf("job %s should still be queryable: %v", id, err)
		}
	}
}

func TestGraphStoreEviction(t *testing.T) {
	s := New(Config{JobWorkers: 1, MaxGraphs: 2})
	defer s.Close()
	var ids []string
	for n := 8; n < 14; n += 2 {
		sg, err := s.Generate("", gen.Spec{Family: "cycle", N: n})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sg.ID)
	}
	if got := s.GraphCount(); got != 2 {
		t.Fatalf("store holds %d graphs, want capacity 2", got)
	}
	if _, err := s.Graph(ids[0]); err == nil {
		t.Error("oldest graph should have been evicted")
	}
	if _, err := s.Graph(ids[2]); err != nil {
		t.Errorf("newest graph should survive: %v", err)
	}
}

// TestGraphStoreEvictionIsLRU is the regression test for the old
// first-loaded-first-evicted policy: a graph that keeps being queried
// must survive MaxGraphs pressure; the least recently accessed one goes.
func TestGraphStoreEvictionIsLRU(t *testing.T) {
	s := New(Config{JobWorkers: 1, MaxGraphs: 2})
	defer s.Close()
	hot, err := s.Generate("hot", gen.Spec{Family: "cycle", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Generate("cold", gen.Spec{Family: "cycle", N: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Access the older graph: under FIFO it would still be evicted
	// next; under LRU the colder, newer one goes instead.
	if _, err := s.Graph(hot.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("new", gen.Spec{Family: "cycle", N: 12}); err != nil {
		t.Fatal(err)
	}
	if got := s.GraphCount(); got != 2 {
		t.Fatalf("store holds %d graphs, want capacity 2", got)
	}
	if _, err := s.Graph(hot.ID); err != nil {
		t.Errorf("hot graph evicted despite recent access: %v", err)
	}
	if _, err := s.Graph(cold.ID); err == nil {
		t.Error("least recently used graph survived eviction")
	}
}

// TestNaNLambdaRejected guards the struct cache keys: NaN compares
// unequal to itself, so a labeling keyed under it could never be found
// again — or evicted, which would livelock the eviction scan. Both
// entry points must refuse it before any key is built.
func TestNaNLambdaRejected(t *testing.T) {
	s := newTestService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: math.NaN(), Seed: 1}
	if _, err := s.Solve(spec); err == nil {
		t.Error("Solve with NaN lambda must error")
	}
	if _, _, err := s.Lookup(spec); err == nil {
		t.Error("Lookup with NaN lambda must error")
	}
	if got := s.CachedLabelings(); got != 0 {
		t.Fatalf("NaN spec left %d cache entries behind", got)
	}
}

func TestDigestIsContentAddressed(t *testing.T) {
	g1, err := gen.Spec{Family: "cycle", N: 12}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Spec{Family: "cycle", N: 12, Seed: 99}.Build() // seed ignored by cycle
	if err != nil {
		t.Fatal(err)
	}
	if store.DigestGraph(g1) != store.DigestGraph(g2) {
		t.Fatal("identical graphs must share a digest")
	}
	g3, err := gen.Spec{Family: "cycle", N: 13}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if store.DigestGraph(g1) == store.DigestGraph(g3) {
		t.Fatal("different graphs must not share a digest")
	}
	if fmt.Sprintf("%d", len(store.DigestGraph(g1))) != "64" {
		t.Fatalf("digest length %d, want 64 hex chars", len(store.DigestGraph(g1)))
	}
}
