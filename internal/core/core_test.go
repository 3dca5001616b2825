package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func check(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want, count := graph.Components(g)
	if res.Components != count {
		t.Fatalf("found %d components, want %d", res.Components, count)
	}
	if !graph.SameLabeling(want, res.Labels) {
		t.Fatal("labels disagree with BFS ground truth")
	}
}

func TestFindComponentsExpanderKnownLambda(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	l, err := gen.ExpanderUnion([]int{150, 250, 100}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindComponents(l.G, Options{Lambda: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	check(t, l.G, res)
	if res.Stats.FinishMerges != 0 {
		t.Errorf("valid λ should need no finish merges, got %d", res.Stats.FinishMerges)
	}
	if res.Stats.Rounds <= 0 {
		t.Error("no rounds charged")
	}
	if res.Stats.Batches < 1 || len(res.Stats.GrowPhases) < 1 {
		t.Errorf("missing stats: %+v", res.Stats)
	}
}

func TestFindComponentsOblivious(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	l, err := gen.ExpanderUnion([]int{120, 180}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindComponents(l.G, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	check(t, l.G, res)
	if len(res.Stats.LambdaSchedule) < 1 {
		t.Error("oblivious run recorded no λ schedule")
	}
}

func TestFindComponentsWeaklyConnected(t *testing.T) {
	// A cycle has λ ≈ 2π²/n²; with an overestimated λ the finish must
	// still deliver exact components.
	g := gen.Cycle(300)
	res, err := FindComponents(g, Options{Lambda: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check(t, g, res)
}

func TestFindComponentsMixedGaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	exp, err := gen.Expander(200, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := gen.RingOfCliques(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	l, err := gen.DisjointUnion(exp, ring, gen.Cycle(60), gen.Clique(12))
	if err != nil {
		t.Fatal(err)
	}
	sh := gen.Shuffled(l, rng)
	res, err := FindComponents(sh.G, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	check(t, sh.G, res)
}

func TestFindComponentsIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(5, 6)
	g := b.Build() // vertices 3,4,7,8,9 isolated
	res, err := FindComponents(g, Options{Lambda: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check(t, g, res)
	if res.Components != 7 {
		t.Errorf("components = %d, want 7", res.Components)
	}
}

func TestFindComponentsEmptyAndTiny(t *testing.T) {
	res, err := FindComponents(graph.NewBuilder(0).Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 0 {
		t.Errorf("empty graph: %d components", res.Components)
	}
	res, err = FindComponents(graph.NewBuilder(3).Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Errorf("edgeless graph: %d components, want 3", res.Components)
	}
	res, err = FindComponents(gen.Clique(2), Options{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Errorf("K2: %d components", res.Components)
	}
}

func TestFindComponentsDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	l, err := gen.ExpanderUnion([]int{80, 120}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FindComponents(l.G, Options{Lambda: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindComponents(l.G, Options{Lambda: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Rounds != b.Stats.Rounds || a.Components != b.Components {
		t.Error("same seed produced different executions")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ between identical runs")
		}
	}
}

// Round shape (the E1 claim in miniature): rounds on expander unions grow
// far slower than log n — going from n=200 to n=3200 (16×, 4 doublings)
// must add only a few rounds.
func TestRoundGrowthSublogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rng := rand.New(rand.NewPCG(7, 7))
	rounds := func(n int) int {
		l, err := gen.ExpanderUnion([]int{n}, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FindComponents(l.G, Options{Lambda: 0.3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != 1 {
			t.Fatalf("n=%d: %d components", n, res.Components)
		}
		return res.Stats.Rounds
	}
	r200, r1600 := rounds(200), rounds(1600)
	if r1600 > r200*2 {
		t.Errorf("rounds(1600)=%d more than doubled rounds(200)=%d", r1600, r200)
	}
}

func TestStatsStepsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	l, err := gen.ExpanderUnion([]int{100}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindComponents(l.G, Options{Lambda: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Steps
	sum := s.Regularize + s.Randomize + s.Grow + s.Finish
	if sum != res.Stats.Rounds {
		t.Errorf("step rounds %d != total %d", sum, res.Stats.Rounds)
	}
}
