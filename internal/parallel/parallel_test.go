package parallel

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// testGraphs returns named graphs spanning the shapes that stress each
// phase: empty/tiny edge cases, self-loops and parallel edges (both
// half-edges share an adjacency list), a long path (defeats phase 1's
// two-neighbor sampling), a star (one huge adjacency list), many small
// components (no dominant component to elect), and the randomized gen
// families the conformance suite uses.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{
		"empty":     graph.FromEdges(0, nil),
		"singleton": graph.FromEdges(1, nil),
		"isolated":  graph.FromEdges(5, nil),
		"selfloop":  graph.FromEdges(3, []graph.Edge{{U: 1, V: 1}}),
		"multiedge": graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 2, V: 3}}),
	}
	path := graph.NewBuilder(300)
	for v := 0; v < 299; v++ {
		path.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	graphs["path"] = path.Build()
	star := graph.NewBuilder(200)
	for v := 1; v < 200; v++ {
		star.AddEdge(0, graph.Vertex(v))
	}
	graphs["star"] = star.Build()
	pairs := graph.NewBuilder(120)
	for v := 0; v < 120; v += 2 {
		pairs.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	graphs["pairs"] = pairs.Build()
	for _, spec := range []gen.Spec{
		{Family: "union", Sizes: []int{28, 20, 12}, D: 6, Seed: 101},
		{Family: "gnd", N: 96, D: 2, Seed: 404},
		{Family: "expander", N: 64, D: 8, Seed: 505},
		{Family: "ringofcliques", N: 5, D: 6},
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("%s-n%d", spec.Family, g.N())] = g
	}
	return graphs
}

// TestMatchesSequential checks exactness and the full determinism
// contract at once: for every graph, every Workers setting, and every
// seed, the output must be bit-identical to graph.Components — not just
// the same partition, the same canonical labels.
func TestMatchesSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want, wantCount := graph.Components(g)
			for _, workers := range []int{0, 1, 4} {
				for _, seed := range []uint64{1, 7, 424242} {
					res := Components(g, Options{Seed: seed, Workers: workers})
					if res.Components != wantCount {
						t.Fatalf("workers=%d seed=%d: %d components, want %d", workers, seed, res.Components, wantCount)
					}
					if !graph.SameLabeling(res.Labels, want) {
						t.Fatalf("workers=%d seed=%d: labeling differs from graph.Components", workers, seed)
					}
				}
			}
		})
	}
}

// TestTuningKnobsStayExact sweeps the heuristic knobs to degenerate
// values; none of them may change the labeling.
func TestTuningKnobsStayExact(t *testing.T) {
	g, err := gen.Spec{Family: "union", Sizes: []int{40, 24}, D: 8, Seed: 202}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, wantCount := graph.Components(g)
	for _, opts := range []Options{
		{SampleRounds: 1},
		{SampleRounds: 3},
		{SampleRounds: 1 << 20}, // exceeds every degree: phase 3 no-ops
		{SampleSize: 1},
		{SampleSize: 1, SampleRounds: 1, Workers: 3, Seed: 99},
	} {
		res := Components(g, opts)
		if res.Components != wantCount || !graph.SameLabeling(res.Labels, want) {
			t.Fatalf("opts %+v: wrong components", opts)
		}
	}
}

// TestStatsReportResolvedKnobs pins the Stats plumbing: resolved
// defaults and a dominant-component skip count that can only cover
// vertices that actually exist.
func TestStatsReportResolvedKnobs(t *testing.T) {
	g, err := gen.Spec{Family: "expander", N: 128, D: 8, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Components(g, Options{Workers: 1})
	if res.Stats.SampleRounds != DefaultSampleRounds {
		t.Fatalf("SampleRounds = %d, want default %d", res.Stats.SampleRounds, DefaultSampleRounds)
	}
	if res.Stats.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", res.Stats.Workers)
	}
	if res.Stats.SkippedVertices < 0 || res.Stats.SkippedVertices > g.N() {
		t.Fatalf("SkippedVertices = %d out of range [0, %d]", res.Stats.SkippedVertices, g.N())
	}
	// A connected expander has one component; with the default sample
	// the whole graph is dominant, so phase 3 should skip every vertex
	// of degree > SampleRounds when run sequentially (no racy reads).
	if res.Components == 1 && res.Stats.SkippedVertices == 0 {
		t.Fatalf("sequential run on a connected graph skipped nothing")
	}
}

// TestElectDominantDeterministicOnTies forces a tied vote: three
// 4-vertex components, six samples, and the first seed whose top count
// is shared by two or more components. The election must name the
// smallest tied root every time; ties decided by the votes map's
// iteration order would pick another root in some of the 64 runs.
func TestElectDominantDeterministicOnTies(t *testing.T) {
	const n, sampleSize = 12, 6
	f := newForest(n, executorFor(1))
	for v := 0; v < n; v++ {
		f.union(graph.Vertex(v), graph.Vertex(v/4*4))
	}
	for seed := uint64(0); ; seed++ {
		rng := mpc.StreamRNG(seed, n, seedStream)
		votes := map[graph.Vertex]int{}
		for i := 0; i < sampleSize; i++ {
			votes[f.find(graph.Vertex(rng.IntN(n)))]++
		}
		best, tied, want := 0, 0, graph.Vertex(n)
		for root := graph.Vertex(0); root < n; root++ {
			switch c := votes[root]; {
			case c > best:
				best, tied, want = c, 1, root
			case c == best && c > 0:
				tied++
			}
		}
		if tied < 2 {
			continue
		}
		for run := 0; run < 64; run++ {
			if got := electDominant(f, n, seed, sampleSize); got != want {
				t.Fatalf("seed %d: run %d elected root %d, want %d (votes %v)", seed, run, got, want, votes)
			}
		}
		return
	}
}
