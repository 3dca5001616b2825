package service

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/store"
)

// partitionConfigs are the three configurations the append benchmark's
// primary caches: the native solver, the engine-backed baseline and a
// paper baseline — three different algorithms, one partition.
var partitionConfigs = []string{"parallel", "dynamic", "labelprop"}

// solvedUnion stores comps disjoint cycles of size vertices each, with
// the cycles' vertices interleaved (vertex v lies on cycle v mod comps),
// and solves it under every partitionConfigs algorithm, returning the
// handle and the three version-0 labelings.
func solvedUnion(t testing.TB, s *Service, comps, size int) (*StoredGraph, []*Labeling) {
	t.Helper()
	var text strings.Builder
	fmt.Fprintf(&text, "%d %d\n", comps*size, comps*size)
	for c := 0; c < comps; c++ {
		for i := 0; i < size; i++ {
			fmt.Fprintf(&text, "%d %d\n", i*comps+c, (i+1)%size*comps+c)
		}
	}
	sg, err := s.Load("cycles", strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	ls := make([]*Labeling, len(partitionConfigs))
	for i, a := range partitionConfigs {
		if ls[i], err = s.Solve(SolveSpec{GraphID: sg.ID, Version: -1, Algo: a}); err != nil {
			t.Fatal(err)
		}
	}
	return sg, ls
}

// latestLabelings looks up every partitionConfigs labeling at the latest
// version; all must be cached (forwarded by the append path).
func latestLabelings(t *testing.T, s *Service, sg *StoredGraph) []*Labeling {
	t.Helper()
	out := make([]*Labeling, len(partitionConfigs))
	for i, a := range partitionConfigs {
		l, ok, err := s.Lookup(SolveSpec{GraphID: sg.ID, Version: -1, Algo: a})
		if err != nil || !ok {
			t.Fatalf("%s not cached at the latest version: %v", a, err)
		}
		out[i] = l
	}
	return out
}

// mapMergeLabels is MergeLabels as it was before its remap became
// slice-indexed — a map from component-forest root to output label —
// kept as the reference the shared partition must stay bit-identical to.
func mapMergeLabels(labels []graph.Vertex, count int, batch []graph.Edge, newN int) ([]graph.Vertex, int) {
	oldN := len(labels)
	uf := graph.NewUnionFind(count + newN - oldN)
	labelOf := func(v graph.Vertex) graph.Vertex {
		if int(v) < oldN {
			return labels[v]
		}
		return graph.Vertex(count + int(v) - oldN)
	}
	for _, e := range batch {
		uf.Union(labelOf(e.U), labelOf(e.V))
	}
	out := make([]graph.Vertex, newN)
	remap := make(map[graph.Vertex]graph.Vertex, uf.Sets())
	for v := range out {
		r := uf.Find(labelOf(graph.Vertex(v)))
		canon, ok := remap[r]
		if !ok {
			canon = graph.Vertex(len(remap))
			remap[r] = canon
		}
		out[v] = canon
	}
	return out, uf.Sets()
}

// TestSolvesShareOnePartition: three algorithms solved at one version
// hold one partition.
func TestSolvesShareOnePartition(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	_, ls := solvedUnion(t, s, 40, 16)
	for _, l := range ls[1:] {
		if l.partition != ls[0].partition {
			t.Fatalf("%s holds its own partition; want the one %s holds", l.Algo, ls[0].Algo)
		}
	}
	if n, _ := s.cache.partitions(); n != 1 {
		t.Fatalf("cache holds %d partitions, want 1", n)
	}
	if got := s.Counters().PartitionMismatches; got != 0 {
		t.Fatalf("PartitionMismatches = %d on agreeing solves", got)
	}
}

// TestNoMergeAppendSharesParentPartition: a batch that joins no two
// components leaves every configuration's new-version labeling pointing
// at the parent's partition — no relabel, one share.
func TestNoMergeAppendSharesParentPartition(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg, parent := solvedUnion(t, s, 40, 16)
	g := materialize(t, sg, 0)
	batch := g.Edges()[:32] // repeated edges never merge
	info, err := s.Append(sg.ID, batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Merges != 0 {
		t.Fatalf("repeated edges merged %d components", info.Merges)
	}
	for i, l := range latestLabelings(t, s, sg) {
		if l.Version != 1 || !l.Forwarded {
			t.Fatalf("%s: version %d forwarded %v, want a forwarded version 1", l.Algo, l.Version, l.Forwarded)
		}
		if l.partition != parent[i].partition {
			t.Fatalf("%s: version 1 does not share the parent's partition", l.Algo)
		}
	}
	c := s.Counters()
	if c.PartitionShares != 1 || c.PartitionRelabels != 0 || c.IncrementalMerges != 3 {
		t.Fatalf("counters: shares %d relabels %d merges %d, want 1, 0, 3",
			c.PartitionShares, c.PartitionRelabels, c.IncrementalMerges)
	}
}

// TestMergingAppendForwardsOnePartition: a merging batch relabels the
// version's one partition once; all three configurations share the
// result, which is bit-identical to a fresh parallel solve of the
// appended version and to the map-based MergeLabels reference.
func TestMergingAppendForwardsOnePartition(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sg, parent := solvedUnion(t, s, 40, 16)
	n := sg.N
	batch := []graph.Edge{{U: 0, V: graph.Vertex(n - 1)}, {U: 3, V: graph.Vertex(n / 2)}, {U: 7, V: 11}}
	info, err := s.Append(sg.ID, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if info.Merges == 0 {
		t.Fatal("cross-component batch merged nothing")
	}
	ls := latestLabelings(t, s, sg)
	for _, l := range ls[1:] {
		if l.partition != ls[0].partition {
			t.Fatalf("%s and %s hold different partitions after the append", l.Algo, ls[0].Algo)
		}
	}
	p := ls[0].partition
	if p == parent[0].partition {
		t.Fatal("a merging batch must not share the parent's partition")
	}
	fresh, err := algo.Find("parallel", materialize(t, sg, 1), algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.labels, fresh.Labels) || p.Components != fresh.Components {
		t.Fatal("forwarded partition differs from a fresh parallel solve")
	}
	ref, refCount := mapMergeLabels(parent[0].labels, parent[0].Components, batch, n)
	if !slices.Equal(p.labels, ref) || refCount != p.Components {
		t.Fatal("forwarded partition differs from the map-based MergeLabels reference")
	}
	if !slices.Equal(p.sizes, graph.ComponentSizes(p.labels, p.Components)) ||
		!slices.Equal(p.hist, graph.SizeHistogram(p.labels, p.Components)) {
		t.Fatal("forwarded sizes or histogram differ from a rescan of the labels")
	}
	c := s.Counters()
	if c.PartitionRelabels != 1 || c.PartitionShares != 0 || c.IncrementalMerges != 3 {
		t.Fatalf("counters: relabels %d shares %d merges %d, want 1, 0, 3",
			c.PartitionRelabels, c.PartitionShares, c.IncrementalMerges)
	}
}

// TestInternRejectsContradictingPartition is the differential oracle: a
// labeling that groups the vertices differently from the partition
// already cached at its version is refused — not cached, not served,
// counted — while an equal partition under other label values is
// accepted onto the held partition.
func TestInternRejectsContradictingPartition(t *testing.T) {
	var logged atomic.Int32
	s := New(Config{Logf: func(string, ...any) { logged.Add(1) }})
	defer s.Close()
	sg, err := s.Load("two", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	held, err := s.Solve(SolveSpec{GraphID: sg.ID, Version: -1, Algo: "parallel"})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sg.resolveVersion(-1)
	if err != nil {
		t.Fatal(err)
	}
	header := func(a string, labels []graph.Vertex, count int) *Labeling {
		key, ok := s.cacheKey(ref.key, SolveSpec{Algo: a})
		if !ok {
			t.Fatalf("no cache key for %s", a)
		}
		return &Labeling{GraphID: sg.ID, Algo: a, key: key,
			partition: newPartition(labels, graph.ComponentSizes(labels, count))}
	}

	// Wrong: vertex 5 moved from the 6-cycle to the 4-path. Same
	// component count, so only the label-by-label check can catch it.
	wrong := slices.Clone(held.labels)
	wrong[5] = wrong[6]
	bad := header("labelprop", wrong, 2)
	if err := s.internLabeling(bad); err == nil || !strings.Contains(err.Error(), "partition mismatch") {
		t.Fatalf("contradicting labeling accepted: %v", err)
	}
	if got := s.Counters().PartitionMismatches; got != 1 {
		t.Fatalf("PartitionMismatches = %d, want 1", got)
	}
	if logged.Load() == 0 {
		t.Fatal("mismatch was not logged")
	}
	if _, ok := s.cache.get(bad.key); ok {
		t.Fatal("contradicting labeling was cached")
	}
	if _, err := s.ComponentCount(SolveSpec{GraphID: sg.ID, Version: -1, Algo: "labelprop"}); !IsNotSolved(err) {
		t.Fatalf("contradicting labeling is served: %v", err)
	}

	// Right, under swapped label values: accepted onto the held partition.
	swapped := make([]graph.Vertex, len(held.labels))
	for v, l := range held.labels {
		swapped[v] = 1 - l
	}
	good := header("labelprop", swapped, 2)
	if err := s.internLabeling(good); err != nil {
		t.Fatal(err)
	}
	if good.partition != held.partition {
		t.Fatal("an equal partition must share the held one")
	}
	if same, err := s.SameComponent(SolveSpec{GraphID: sg.ID, Version: -1, Algo: "labelprop"}, 0, 5); err != nil || !same {
		t.Fatalf("same-component(0,5) = %v, %v", same, err)
	}
}

// TestForwardRejectsComponentCountMismatch: a forward whose relabel
// reaches a component count other than the one the version records is
// refused and counted as a mismatch.
func TestForwardRejectsComponentCountMismatch(t *testing.T) {
	s := New(Config{Logf: func(string, ...any) {}})
	defer s.Close()
	p := newPartition([]graph.Vertex{0, 0, 1, 1, 2}, []int{2, 2, 1})
	target := VersionInfo{Version: 1, N: 5, Components: 1} // the batch leaves 2
	if _, err := s.forwardPartition(p, []graph.Edge{{U: 1, V: 2}}, target); err == nil {
		t.Fatal("forward to a miscounted version accepted")
	}
	if got := s.Counters().PartitionMismatches; got != 1 {
		t.Fatalf("PartitionMismatches = %d, want 1", got)
	}
}

// TestNoMergeForwardAllocationIndependentOfN is the allocation guard: the
// forward step of an append that merges nothing allocates the same bytes
// on a 4k-vertex graph as on a 64k-vertex one — only headers and cache
// entries, never an n-sized table per configuration.
func TestNoMergeForwardAllocationIndependentOfN(t *testing.T) {
	forwardBytes := func(comps int) uint64 {
		s := New(Config{})
		defer s.Close()
		sg, _ := solvedUnion(t, s, comps, 64)
		prev := sg.Latest()
		batch := materialize(t, sg, 0).Edges()[:256]
		info := VersionInfo{
			Version: 1, Digest: store.ChainDigest(prev.Digest, prev.N, batch),
			N: prev.N, M: prev.M + len(batch), Appended: len(batch), Components: prev.Components,
		}
		best := uint64(1 << 62)
		var before, after runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&before)
			s.forwardCached(prev.Digest, info, batch)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if c := s.Counters(); c.PartitionRelabels != 0 || c.PartitionShares == 0 {
			t.Fatalf("no-merge forward relabeled: %+v", c)
		}
		return best
	}
	small, large := forwardBytes(64), forwardBytes(1024) // 4096 and 65536 vertices
	// One 65536-vertex label array alone is 256 KiB; allow noise far below it.
	if large > small+1024 {
		t.Fatalf("no-merge forward allocated %d B at n=65536 vs %d B at n=4096: grows with n", large, small)
	}
}
