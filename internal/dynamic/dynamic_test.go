package dynamic

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestEngineMatchesStaticComponents(t *testing.T) {
	// Path 0-1-2 plus isolated 3, 4.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	e := FromGraph(g)
	if e.Version() != 0 || e.Components() != 3 || e.Edges() != 2 {
		t.Fatalf("base state: version=%d components=%d edges=%d", e.Version(), e.Components(), e.Edges())
	}
	if e.SameComponent(0, 2) == false || e.SameComponent(0, 3) {
		t.Fatalf("base connectivity wrong")
	}

	// Intra-component edge: no merge, version bumps.
	if m := e.Apply([]graph.Edge{{U: 0, V: 2}}, 0); m != 0 {
		t.Fatalf("intra edge caused %d merges", m)
	}
	if e.Version() != 1 || e.Components() != 3 {
		t.Fatalf("after intra: version=%d components=%d", e.Version(), e.Components())
	}

	// Inter-component edge: exactly one merge.
	if m := e.Apply([]graph.Edge{{U: 2, V: 3}}, 0); m != 1 {
		t.Fatalf("inter edge caused %d merges, want 1", m)
	}
	if e.Components() != 2 || e.ComponentSize(3) != 4 {
		t.Fatalf("after inter: components=%d size(3)=%d", e.Components(), e.ComponentSize(3))
	}

	// Growth: two new singletons, then connect one of them.
	if m := e.Apply([]graph.Edge{{U: 5, V: 4}}, 2); m != 1 {
		t.Fatalf("grow batch caused %d merges, want 1", m)
	}
	if e.N() != 7 || e.Components() != 3 { // {0..3,}, {4,5}, {6}
		t.Fatalf("after grow: n=%d components=%d", e.N(), e.Components())
	}
}

// TestApplyMergeCountsMatchComponents: components only merge, so after
// every batch the component count is the initial count minus the merges
// Apply reported so far.
func TestApplyMergeCountsMatchComponents(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	const n = 200
	e := New(n)
	merges := 0
	for batch := 0; batch < 40; batch++ {
		edges := make([]graph.Edge, 0, 8)
		for i := 0; i < 8; i++ {
			edges = append(edges, graph.Edge{
				U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n)),
			})
		}
		merges += e.Apply(edges, 0)
		if want := n - merges; e.Components() != want {
			t.Fatalf("batch %d: components = %d, want initial-merges = %d", batch, e.Components(), want)
		}
	}
}

// TestEngineAgreesWithRebuiltGraph drives random batched appends and
// checks, after every batch, that the engine's labeling partitions the
// vertices exactly like a from-scratch BFS over the materialized graph.
func TestEngineAgreesWithRebuiltGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	const n = 300
	base := make([]graph.Edge, 0, n/2)
	for i := 0; i < n/2; i++ {
		base = append(base, graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))})
	}
	g := graph.FromEdges(n, base)
	e := FromGraph(g)
	all := append([]graph.Edge(nil), base...)
	for batch := 0; batch < 25; batch++ {
		edges := make([]graph.Edge, 0, 6)
		for i := 0; i < 6; i++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))})
		}
		e.Apply(edges, 0)
		all = append(all, edges...)

		want, wantCount := graph.Components(graph.FromEdges(n, all))
		if e.Components() != wantCount {
			t.Fatalf("batch %d: components = %d, want %d", batch, e.Components(), wantCount)
		}
		if !graph.SameLabeling(e.Labels(), want) {
			t.Fatalf("batch %d: engine labeling diverged from static recompute", batch)
		}
	}
}

func TestMergeLabelsMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 3))
	const n = 250
	base := make([]graph.Edge, 0, n/3)
	for i := 0; i < n/3; i++ {
		base = append(base, graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))})
	}
	g := graph.FromEdges(n, base)
	labels, count := graph.Components(g)
	all := append([]graph.Edge(nil), base...)
	curN := n
	for batch := 0; batch < 20; batch++ {
		grow := rng.IntN(3)
		newN := curN + grow
		edges := make([]graph.Edge, 0, 5)
		for i := 0; i < 5; i++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(rng.IntN(newN)), V: graph.Vertex(rng.IntN(newN))})
		}
		var err error
		labels, count, err = MergeLabels(labels, count, edges, newN)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		all = append(all, edges...)
		curN = newN

		want, wantCount := graph.Components(graph.FromEdges(curN, all))
		if count != wantCount {
			t.Fatalf("batch %d: count = %d, want %d", batch, count, wantCount)
		}
		// MergeLabels promises the canonical form itself, not just the same
		// partition: bit-identical to the first-appearance relabeling.
		if !graph.SameLabeling(labels, want) {
			t.Fatalf("batch %d: merged labeling diverged", batch)
		}
		for v := range labels {
			if labels[v] != want[v] {
				t.Fatalf("batch %d: not canonical at vertex %d: %d vs %d", batch, v, labels[v], want[v])
			}
		}
	}
}

// TestMergeLabelsPropertyNonCanonicalGrow: fed a dense labeling whose
// label values are a random permutation of the canonical ones, and
// batches that grow the vertex set, MergeLabels still returns exactly
// the canonical labeling graph.Components computes for base+batch, and
// MergePartition's folded sizes equal a rescan of that labeling. The
// input labeling is never modified.
func TestMergeLabelsPropertyNonCanonicalGrow(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 6))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(60)
		base := make([]graph.Edge, rng.IntN(n))
		for i := range base {
			base[i] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
		}
		canon, count := graph.Components(graph.FromEdges(n, base))
		perm := rng.Perm(count)
		labels := make([]graph.Vertex, n)
		for v, l := range canon {
			labels[v] = graph.Vertex(perm[l])
		}
		sizes := graph.ComponentSizes(labels, count)
		input := slices.Clone(labels)

		newN := n + rng.IntN(4)
		batch := make([]graph.Edge, rng.IntN(8))
		for i := range batch {
			batch[i] = graph.Edge{U: graph.Vertex(rng.IntN(newN)), V: graph.Vertex(rng.IntN(newN))}
		}
		want, wantCount := graph.Components(graph.FromEdges(newN, append(base, batch...)))

		got, gotCount, err := MergeLabels(labels, count, batch, newN)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotCount != wantCount || !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeLabels = %v (%d), graph.Components = %v (%d)", trial, got, gotCount, want, wantCount)
		}
		pl, ps, err := MergePartition(labels, sizes, batch, newN)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(pl, want) || !slices.Equal(ps, graph.ComponentSizes(want, wantCount)) {
			t.Fatalf("trial %d: MergePartition sizes %v, want %v", trial, ps, graph.ComponentSizes(want, wantCount))
		}
		if !slices.Equal(labels, input) {
			t.Fatalf("trial %d: input labeling modified", trial)
		}
	}
}

func TestMergeLabelsRejectsBadInput(t *testing.T) {
	labels := []graph.Vertex{0, 1}
	if _, _, err := MergeLabels(labels, 2, nil, 1); err == nil {
		t.Fatalf("shrinking newN must fail")
	}
	if _, _, err := MergeLabels(labels, 2, []graph.Edge{{U: 0, V: 9}}, 2); err == nil {
		t.Fatalf("out-of-range endpoint must fail")
	}
	if _, _, err := MergeLabels([]graph.Vertex{0, 7}, 2, []graph.Edge{{U: 0, V: 1}}, 2); err == nil {
		t.Fatalf("corrupt label must fail")
	}
	if _, _, err := MergeLabels([]graph.Vertex{0, 7}, 2, nil, 2); err == nil {
		t.Fatalf("corrupt label off the batch must fail")
	}
	if _, _, err := MergePartition([]graph.Vertex{0, 0}, []int{2, 1}, nil, 2); err == nil {
		t.Fatalf("a size for a component no vertex carries must fail")
	}
}

// TestFromGraphMappedViewMatchesMaterialized: seeding from a view of a
// mapped WCCM1 snapshot (and from an Overlay of appended edges on it,
// the shape a durable graph's tip has) must give the engine exactly the
// state seeding from the materialized CSR gives — same labels, and the
// same labels, merge counts, history and MergeLabels results over every
// later batch.
func TestFromGraphMappedViewMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	const n = 300
	randomEdges := func(k, n int) []graph.Edge {
		out := make([]graph.Edge, k)
		for i := range out {
			out[i] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
		}
		return out
	}
	var buf bytes.Buffer
	if err := graph.WriteMapped(&buf, graph.FromEdges(n, randomEdges(n/2, n))); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMappedSource(graph.NewBytesSource(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]graph.View{
		"mapped":  mapped,
		"overlay": graph.NewOverlay(mapped, n+5, randomEdges(40, n+5)),
	}
	for name, view := range views {
		t.Run(name, func(t *testing.T) {
			fromView, fromCSR := FromGraph(view), FromGraph(graph.MaterializeView(view))
			if fromView.Edges() != fromCSR.Edges() || !slices.Equal(fromView.Labels(), fromCSR.Labels()) {
				t.Fatal("seeded engines differ")
			}
			// Each engine's base labeling is then fast-forwarded by
			// MergeLabels, as the service does with cached labelings.
			labelsV, countV := fromView.Labels(), fromView.Components()
			labelsC, countC := fromCSR.Labels(), fromCSR.Components()
			curN := view.NumVertices()
			for b := 0; b < 10; b++ {
				grow := rng.IntN(3)
				curN += grow
				batch := randomEdges(6, curN)
				if mv, mc := fromView.Apply(batch, grow), fromCSR.Apply(batch, grow); mv != mc {
					t.Fatalf("batch %d: %d merges from the view seed, %d from the CSR seed", b, mv, mc)
				}
				if !slices.Equal(fromView.Labels(), fromCSR.Labels()) {
					t.Fatalf("batch %d: engines diverged", b)
				}
				if labelsV, countV, err = MergeLabels(labelsV, countV, batch, curN); err != nil {
					t.Fatal(err)
				}
				if labelsC, countC, err = MergeLabels(labelsC, countC, batch, curN); err != nil {
					t.Fatal(err)
				}
				if countV != countC || countV != fromView.Components() || !slices.Equal(labelsV, labelsC) || !slices.Equal(labelsV, fromView.Labels()) {
					t.Fatalf("batch %d: MergeLabels results differ (%d vs %d components, engine says %d)", b, countV, countC, fromView.Components())
				}
			}
		})
	}
}
