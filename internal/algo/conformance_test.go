package algo

import (
	"fmt"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// metamorphicSpecs are randomized gen.Spec instances spanning connected,
// multi-component, and sparse-random shapes. Seeds vary per spec so each
// run of the suite covers distinct instances of each family.
func metamorphicSpecs() []gen.Spec {
	return []gen.Spec{
		{Family: "union", Sizes: []int{28, 20, 12}, D: 6, Seed: 101},
		{Family: "union", Sizes: []int{40, 24}, D: 8, Seed: 202},
		{Family: "gnd", N: 72, D: 3, Seed: 303},
		{Family: "gnd", N: 96, D: 2, Seed: 404},
		{Family: "expander", N: 64, D: 8, Seed: 505},
		{Family: "ringofcliques", N: 5, D: 6},
	}
}

// canonicalSolve runs the named algorithm and returns the canonical form
// of its labeling plus the component count.
func canonicalSolve(t *testing.T, name string, g *graph.Graph) ([]graph.Vertex, int) {
	t.Helper()
	res, err := Find(name, g, Options{Seed: 9, Lambda: 0})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return CanonicalForm(res.Labels), res.Components
}

// TestMetamorphicAllAlgorithmsAgree: for every randomized spec, every
// registry algorithm must produce the identical partition up to label
// renaming — i.e. bit-identical canonical forms.
func TestMetamorphicAllAlgorithmsAgree(t *testing.T) {
	for _, spec := range metamorphicSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-n%d-s%d", spec.Family, spec.N, spec.Seed), func(t *testing.T) {
			g, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, refCount := canonicalSolve(t, "dynamic", g)
			for _, name := range Names() {
				if name == "dynamic" {
					continue
				}
				got, count := canonicalSolve(t, name, g)
				if count != refCount {
					t.Fatalf("%s: %d components, dynamic says %d", name, count, refCount)
				}
				for v := range got {
					if got[v] != ref[v] {
						t.Fatalf("%s: canonical form differs from dynamic at vertex %d (%d vs %d)",
							name, v, got[v], ref[v])
					}
				}
			}
		})
	}
}

// withEdge returns g plus one extra edge.
func withEdge(g *graph.Graph, e graph.Edge) *graph.Graph {
	b := graph.NewBuilderHint(g.N(), g.M()+1)
	g.ForEachEdge(func(old graph.Edge) { b.AddEdge(old.U, old.V) })
	b.AddEdge(e.U, e.V)
	return b.Build()
}

// pickIntraInter finds one intra-component vertex pair and one
// inter-component pair under the given labeling (the inter pair may not
// exist on connected graphs).
func pickIntraInter(labels []graph.Vertex) (intra, inter graph.Edge, hasInter bool) {
	intra = graph.Edge{U: -1, V: -1}
	for u := 1; u < len(labels); u++ {
		for v := 0; v < u; v++ {
			if labels[u] == labels[v] && intra.U < 0 {
				intra = graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
			}
			if labels[u] != labels[v] && !hasInter {
				inter = graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
				hasInter = true
			}
			if intra.U >= 0 && hasInter {
				return intra, inter, true
			}
		}
	}
	return intra, inter, hasInter
}

// TestMetamorphicEdgeAppends: adding an intra-component edge never
// changes the partition; adding an inter-component edge merges exactly
// the two touched components and nothing else. Every registry algorithm
// must observe both properties, and the merged partition must equal the
// dynamic.MergeLabels fast-forward of the original labeling.
func TestMetamorphicEdgeAppends(t *testing.T) {
	for _, spec := range metamorphicSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-n%d-s%d", spec.Family, spec.N, spec.Seed), func(t *testing.T) {
			g, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			before, beforeCount := canonicalSolve(t, "dynamic", g)
			intra, inter, hasInter := pickIntraInter(before)
			if intra.U < 0 {
				t.Fatalf("no intra-component pair in %v", spec)
			}

			gIntra := withEdge(g, intra)
			var gInter *graph.Graph
			if hasInter {
				gInter = withEdge(g, inter)
			}

			for _, name := range Names() {
				t.Run(name, func(t *testing.T) {
					got, count := canonicalSolve(t, name, gIntra)
					if count != beforeCount {
						t.Fatalf("intra edge changed component count %d -> %d", beforeCount, count)
					}
					for v := range got {
						if got[v] != before[v] {
							t.Fatalf("intra edge changed the partition at vertex %d", v)
						}
					}

					if !hasInter {
						return
					}
					got, count = canonicalSolve(t, name, gInter)
					if count != beforeCount-1 {
						t.Fatalf("inter edge: %d components, want exactly one merge from %d", count, beforeCount)
					}
					want, wantCount, err := dynamic.MergeLabels(before, beforeCount, []graph.Edge{inter}, g.N())
					if err != nil {
						t.Fatal(err)
					}
					if wantCount != count {
						t.Fatalf("MergeLabels count %d, algorithm count %d", wantCount, count)
					}
					for v := range got {
						if got[v] != want[v] {
							t.Fatalf("inter-edge partition differs from MergeLabels fast-forward at vertex %d", v)
						}
					}
				})
			}
		})
	}
}

// TestCanonicalForm pins the helper itself: first-appearance order,
// idempotence, and partition preservation.
func TestCanonicalForm(t *testing.T) {
	in := []graph.Vertex{5, 2, 5, 9, 2}
	got := CanonicalForm(in)
	want := []graph.Vertex{0, 1, 0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CanonicalForm(%v) = %v, want %v", in, got, want)
		}
	}
	again := CanonicalForm(got)
	for i := range got {
		if again[i] != got[i] {
			t.Fatal("CanonicalForm not idempotent on canonical input")
		}
	}
	if !graph.SameLabeling(in, got) {
		t.Fatal("CanonicalForm changed the partition")
	}
}
