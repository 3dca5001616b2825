package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
)

// twoComponentGraph is two disjoint paths: {0,1,2} and {3,4}.
const twoComponentEdgeList = "5 3\n0 1\n1 2\n3 4\n"

func loadTwoComponents(t *testing.T, s *Service) *StoredGraph {
	t.Helper()
	sg, err := s.Load("two", strings.NewReader(twoComponentEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// materialize builds the CSR of one retained version through the
// service's store.
func materialize(tb testing.TB, sg *StoredGraph, version int) *graph.Graph {
	tb.Helper()
	g, err := sg.svc.Store().Materialize(sg.ID, version)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestAppendBumpsVersionAndChainsDigest(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg := loadTwoComponents(t, s)

	if got := sg.LatestVersion(); got != 0 {
		t.Fatalf("fresh graph at version %d", got)
	}
	base := sg.Latest()
	if base.Digest != sg.Digest || base.Components != 2 {
		t.Fatalf("v0 metadata wrong: %+v", base)
	}

	v1, err := s.Append(sg.ID, []graph.Edge{{U: 2, V: 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.M != 4 || v1.N != 5 {
		t.Fatalf("v1 = %+v", v1)
	}
	if v1.Merges != 1 || v1.Components != 1 {
		t.Fatalf("inter-component append: merges=%d components=%d", v1.Merges, v1.Components)
	}
	if v1.Digest == base.Digest || len(v1.Digest) != len(base.Digest) {
		t.Fatalf("version digest must chain to a fresh value: %q vs %q", v1.Digest, base.Digest)
	}
	// Intra-component append: version bumps, nothing merges.
	v2, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 || v2.Merges != 0 || v2.Components != 1 {
		t.Fatalf("v2 = %+v", v2)
	}
	// The base fields stay the content address of version 0.
	if sg.N != 5 || sg.M != 3 || sg.Digest != base.Digest {
		t.Fatalf("base fields mutated: n=%d m=%d", sg.N, sg.M)
	}

	vers := sg.Versions()
	if len(vers) != 3 || vers[0].Version != 0 || vers[2].Version != 2 {
		t.Fatalf("versions = %+v", vers)
	}
	c := s.Counters()
	if c.EdgeBatches != 2 || c.EdgesAppended != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestAppendGrowUnlimitedRejectsWideEndpoint: with MaxVertices
// unlimited, ?grow=true lets the batch parser take the full int range;
// an endpoint past the Vertex range must answer 400 and create no
// version, not wrap to 32 bits ((1,0) for 2^32+1) and append.
func TestAppendGrowUnlimitedRejectsWideEndpoint(t *testing.T) {
	s := New(Config{JobWorkers: 1, MaxVertices: -1})
	defer s.Close()
	sg := loadTwoComponents(t, s)
	h := NewHandler(s)
	for _, body := range []string{"4294967297 0\n", "0 2147483648\n"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/"+sg.ID+"/edges?grow=true", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "out of range") {
			t.Errorf("body %q: got %d %s, want 400 out of range", body, rec.Code, rec.Body)
		}
	}
	if v := sg.LatestVersion(); v != 0 {
		t.Fatalf("rejected appends created version %d", v)
	}
}

func TestAppendValidatesRangeAndLimits(t *testing.T) {
	s := New(Config{MaxVertices: 8, MaxEdges: 5})
	defer s.Close()
	sg := loadTwoComponents(t, s)

	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 7}}, false); err == nil {
		t.Fatal("out-of-range endpoint without grow must fail")
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: -1, V: 0}}, true); err == nil {
		t.Fatal("negative endpoint must fail")
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 9}}, true); err == nil {
		t.Fatal("grow past MaxVertices must fail")
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}, false); err == nil {
		t.Fatal("append past MaxEdges must fail")
	}
	if _, err := s.Append("g-nope", []graph.Edge{{U: 0, V: 1}}, false); err == nil {
		t.Fatal("append to unknown graph must fail")
	}
	// Failed appends must not have bumped anything.
	if sg.LatestVersion() != 0 {
		t.Fatalf("failed appends bumped version to %d", sg.LatestVersion())
	}

	// Growth within limits works and adds isolated vertices.
	info, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 7}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 8 || info.Components != 2+3-1 {
		// 5 base vertices grow to 8: +3 singletons {5,6,7}, then 7 joins
		// component {0,1,2}: 2 base comps + 3 - 1 merge = 4.
		t.Fatalf("grow append: %+v", info)
	}
}

// TestStaleCacheEntryCannotAnswerNewerVersion is the version-keying
// audit: a labeling cached for (digest, algo, seed) at version K must
// never answer a query addressed to version K+1, even though graph ID,
// algorithm, and seed all match.
func TestStaleCacheEntryCannotAnswerNewerVersion(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg := loadTwoComponents(t, s)

	spec := SolveSpec{GraphID: sg.ID, Version: -1, Algo: "boruvka"}
	if _, err := s.Solve(spec); err != nil {
		t.Fatal(err)
	}
	if count, err := s.ComponentCount(spec); err != nil || count != 2 {
		t.Fatalf("v0 count = %d, %v", count, err)
	}

	// Bridge the two components. The old labeling (2 components) is now
	// stale for the latest version.
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 2, V: 3}}, false); err != nil {
		t.Fatal(err)
	}
	count, err := s.ComponentCount(spec)
	if err != nil {
		t.Fatalf("latest-version query failed: %v", err)
	}
	if count == 2 {
		t.Fatal("stale version-0 labeling answered a latest-version query")
	}
	if count != 1 {
		t.Fatalf("latest count = %d, want 1", count)
	}
	same, err := s.SameComponent(spec, 0, 4)
	if err != nil || !same {
		t.Fatalf("0 and 4 must be connected at latest: %v %v", same, err)
	}

	// The old version stays addressable and still answers 2 — correct for
	// the state it names.
	v0 := SolveSpec{GraphID: sg.ID, Version: 0, Algo: "boruvka"}
	if count, err := s.ComponentCount(v0); err != nil || count != 2 {
		t.Fatalf("pinned v0 count = %d, %v", count, err)
	}
}

// TestAppendFastForwardsWithoutResolving: the append path must update
// cached labelings incrementally — the solve counter stays flat while
// queries keep answering across many appends.
func TestAppendFastForwardsWithoutResolving(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg := loadTwoComponents(t, s)

	spec := SolveSpec{GraphID: sg.ID, Version: -1, Algo: "hashtomin"}
	if _, err := s.Solve(spec); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Solves; got != 1 {
		t.Fatalf("solves = %d", got)
	}

	batches := [][]graph.Edge{
		{{U: 0, V: 2}},               // intra
		{{U: 2, V: 3}},               // merges the two components
		{{U: 0, V: 4}, {U: 1, V: 1}}, // intra + loop
	}
	wantCounts := []int{2, 1, 1}
	for i, batch := range batches {
		if _, err := s.Append(sg.ID, batch, false); err != nil {
			t.Fatal(err)
		}
		count, err := s.ComponentCount(spec)
		if err != nil {
			t.Fatalf("batch %d: query after append: %v", i, err)
		}
		if count != wantCounts[i] {
			t.Fatalf("batch %d: count = %d, want %d", i, count, wantCounts[i])
		}
	}
	c := s.Counters()
	if c.Solves != 1 {
		t.Fatalf("appends triggered re-solves: solves = %d", c.Solves)
	}
	if c.IncrementalMerges == 0 {
		t.Fatal("no incremental merges recorded")
	}

	// The forwarded labeling matches a from-scratch solve of the final
	// version bit-for-bit after canonicalization (checked via histogram +
	// count here; the scenario test compares full labelings).
	l, ok, err := s.Lookup(spec)
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", err, ok)
	}
	if !l.Forwarded || l.Version != 3 {
		t.Fatalf("labeling not forwarded to latest: %+v", l)
	}
}

// TestLazyFastForwardAndGapFallback: a labeling solved for an old
// version fast-forwards lazily at query time while the gap is within
// MaxVersionGap, and degrades to not-solved once the anchor version
// falls out of the retained window.
func TestLazyFastForwardAndGapFallback(t *testing.T) {
	s := New(Config{MaxVersionGap: 2})
	defer s.Close()
	sg := loadTwoComponents(t, s)

	// Two appends first, then solve PINNED at version 1 — the eager
	// append path has nothing to forward (nothing cached yet), so the
	// later latest-version query must fast-forward lazily from v1.
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 2}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 2, V: 3}}, false); err != nil {
		t.Fatal(err)
	}
	v1 := SolveSpec{GraphID: sg.ID, Version: 1, Algo: "labelprop"}
	if _, err := s.Solve(v1); err != nil {
		t.Fatal(err)
	}

	latest := SolveSpec{GraphID: sg.ID, Version: -1, Algo: "labelprop"}
	count, err := s.ComponentCount(latest)
	if err != nil {
		t.Fatalf("lazy fast-forward failed: %v", err)
	}
	if count != 1 {
		t.Fatalf("latest count = %d, want 1", count)
	}
	if s.Counters().Solves != 1 || s.Counters().IncrementalMerges == 0 {
		t.Fatalf("expected one solve + lazy merges, got %+v", s.Counters())
	}

	// Push the window past the anchor: with MaxVersionGap=2 the store
	// retains 3 versions. After two more appends the window is {2,3,4} —
	// the v1 and v2 labelings are out of reach for an unsolved seed.
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 3, V: 4}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := sg.resolveVersion(0); err == nil {
		t.Fatal("version 0 must have left the retained window")
	}
	if _, err := sg.resolveVersion(1); err == nil {
		t.Fatal("version 1 must have left the retained window")
	}

	// A fresh configuration (different algo ⇒ different canonical key
	// lineage) has no cached anchor inside the window: not-solved, the
	// registry-re-solve fallback.
	fresh := SolveSpec{GraphID: sg.ID, Version: -1, Algo: "boruvka"}
	if _, err := s.ComponentCount(fresh); !IsNotSolved(err) {
		t.Fatalf("want not-solved fallback, got %v", err)
	}
	if _, err := s.Solve(fresh); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Solves; got != 2 {
		t.Fatalf("fallback must re-solve: solves = %d", got)
	}
	if count, err := s.ComponentCount(fresh); err != nil || count != 1 {
		t.Fatalf("post-fallback count = %d, %v", count, err)
	}
}

func TestSnapshotMaterializesRetainedVersions(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg := loadTwoComponents(t, s)
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 2, V: 3}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 6, V: 0}}, true); err != nil {
		t.Fatal(err)
	}

	g0 := materialize(t, sg, 0)
	if g0.N() != 5 || g0.M() != 3 {
		t.Fatalf("v0 snapshot: %v", g0)
	}
	g1 := materialize(t, sg, 1)
	if g1.N() != 5 || g1.M() != 4 || !g1.HasEdge(2, 3) {
		t.Fatalf("v1 snapshot: %v", g1)
	}
	g2 := materialize(t, sg, 2)
	if g2.N() != 7 || g2.M() != 5 || !g2.HasEdge(6, 0) {
		t.Fatalf("v2 snapshot: %v", g2)
	}
	if _, err := s.Store().Materialize(sg.ID, 9); err == nil {
		t.Fatal("unknown version must not materialize")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The latest materialization is cached across calls.
	if materialize(t, sg, 2) != g2 {
		t.Fatal("latest snapshot not cached")
	}
}

func TestReloadDedupesOntoVersionedEntry(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg := loadTwoComponents(t, s)
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 2, V: 3}}, false); err != nil {
		t.Fatal(err)
	}
	again, err := s.Load("again", strings.NewReader(twoComponentEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	if again != sg {
		t.Fatal("re-loading the base content must dedupe onto the versioned entry")
	}
	if again.LatestVersion() != 1 {
		t.Fatalf("dedupe reset the version lineage: %d", again.LatestVersion())
	}
}
