package algo

import (
	"testing"

	"repro/internal/graph"
)

// TestParallelRegistered pins the native solver's registry presence (the
// conformance suite iterates Names(), so registration is what drops it
// into the metamorphic checks).
func TestParallelRegistered(t *testing.T) {
	if _, err := Get("parallel"); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBitIdenticalAcrossWorkersAndSeeds is the registry-contract
// half of the determinism story: across Workers ∈ {0, 1, 4} and several
// seeds, the raw labeling (no CanonicalForm smoothing) must be
// bit-identical — stronger than the per-seed contract the other
// algorithms honor, because the canonical relabeling pass erases both
// the schedule and the seed.
func TestParallelBitIdenticalAcrossWorkersAndSeeds(t *testing.T) {
	for _, spec := range metamorphicSpecs() {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var ref []graph.Vertex
		for _, workers := range []int{0, 1, 4} {
			for _, seed := range []uint64{0, 9, 1 << 40} {
				res, err := Find("parallel", g, Options{Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res.Labels
					continue
				}
				for v := range ref {
					if res.Labels[v] != ref[v] {
						t.Fatalf("%s: workers=%d seed=%d: label[%d]=%d differs from reference %d",
							spec.Family, workers, seed, v, res.Labels[v], ref[v])
					}
				}
			}
		}
		// And the labeling is not merely self-consistent but canonical:
		// identical to the sequential BFS ground truth's label values.
		want, _ := graph.Components(g)
		for v := range want {
			if ref[v] != want[v] {
				t.Fatalf("%s: label[%d]=%d, graph.Components says %d", spec.Family, v, ref[v], want[v])
			}
		}
	}
}
