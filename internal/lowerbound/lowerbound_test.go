package lowerbound

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
	"repro/internal/spectral"
)

func TestPackingMultiplicityBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	p, err := DefaultPacking(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Graphs) != 400/16 {
		t.Errorf("k = %d, want 25", len(p.Graphs))
	}
	if p.MaxMultiplicity < 1 || p.MaxMultiplicity > 4*10 {
		t.Errorf("max multiplicity %d outside (0, 4·log n]", p.MaxMultiplicity)
	}
	// Every packing member is d-regular.
	for i, b := range p.Graphs {
		if !b.IsRegular(p.Degree) {
			t.Errorf("B_%d not %d-regular", i, p.Degree)
		}
	}
}

func TestPackingErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	if _, err := NewPacking(50, 8, 0, 10, rng); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := NewPacking(50, 8, 5, 0, rng); err == nil {
		t.Error("want error for maxMult=0")
	}
	// Impossible multiplicity: many graphs on a tiny vertex set must share
	// edges more than once.
	if _, err := NewPacking(4, 2, 40, 1, rng); err == nil {
		t.Error("want failure for unachievable multiplicity bound")
	}
}

// The adversary survives any algorithm for Ω(k/maxMult) queries: even the
// optimal greedy strategy cannot finish faster.
func TestAdversaryForcesQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	p, err := DefaultPacking(320, rng)
	if err != nil {
		t.Fatal(err)
	}
	k := len(p.Graphs)
	floor := k / p.MaxMultiplicity // information-theoretic floor
	greedy := GreedyQueries(p)
	if greedy < floor {
		t.Errorf("greedy finished in %d < forced floor %d", greedy, floor)
	}
	random := RandomQueries(p, rng)
	if random < greedy {
		t.Errorf("random (%d) beat greedy (%d)?", random, greedy)
	}
}

// Query growth: forced queries scale ≈ linearly with n (the Ω(n/log n)
// shape of Lemma 9.3).
func TestQueryComplexityScalesWithN(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	q := func(n int) int {
		p, err := DefaultPacking(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		return GreedyQueries(p)
	}
	q200, q800 := q(200), q(800)
	if q800 < 2*q200 {
		t.Errorf("queries grew too slowly: q(200)=%d q(800)=%d", q200, q800)
	}
}

func TestAdversaryBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	p, err := NewPacking(60, 4, 5, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdversary(p)
	if adv.Alive() != 5 || !adv.Undetermined() {
		t.Fatalf("fresh adversary: alive=%d", adv.Alive())
	}
	// Query an edge of graph 0 specifically.
	var e0 graph.Edge
	p.Graphs[0].ForEachEdge(func(e graph.Edge) { e0 = e })
	if adv.Query(e0) {
		t.Error("adversary must answer absent")
	}
	if adv.Alive() >= 5 {
		t.Error("query did not eliminate the containing graph")
	}
	if adv.Queries() != 1 {
		t.Errorf("queries = %d", adv.Queries())
	}
	// Querying a non-edge costs a query but eliminates nothing new.
	before := adv.Alive()
	adv.Query(graph.Edge{U: 0, V: 1}) // may or may not be in support
	if adv.Alive() > before {
		t.Error("alive count increased")
	}
}

// The hard instances really satisfy the ExpanderConn promise: sparse, and
// each component has constant spectral gap.
func TestHardInstancePromise(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	p, err := NewPacking(120, 8, 4, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Disconnected case: two components, both expanders.
	g, err := HardInstance(p, 8, -1, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, count := graph.Components(g)
	if count != 2 {
		t.Fatalf("disconnected instance has %d components", count)
	}
	if m := g.M(); m > 10*g.N() {
		t.Errorf("instance not sparse: m=%d n=%d", m, g.N())
	}
	gaps, _, _ := spectral.ComponentGaps(g)
	for i, gap := range gaps {
		if gap < 0.2 {
			t.Errorf("component %d gap %.3f < 0.2", i, gap)
		}
	}
	// Connected case.
	gc, err := HardInstance(p, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(gc) {
		t.Error("connected instance is disconnected")
	}
	if gap := spectral.Lambda2(gc); gap < 0.1 {
		t.Errorf("connected instance gap %.3f", gap)
	}
	if _, err := HardInstance(p, 8, 99, rng); err == nil {
		t.Error("want error for out-of-range index")
	}
}

// GreedyQueries must not depend on map iteration order: E9's n = 400 row
// (seed 1 in internal/bench) has tied argmax edges, and with ties left to
// map order it read 6 or 7 from run to run.
func TestGreedyQueriesDeterministic(t *testing.T) {
	const n, runs = 400, 24
	first := -1
	for i := 0; i < runs; i++ {
		p, err := DefaultPacking(n, rand.New(rand.NewPCG(1^0xabcdef, 900+n)))
		if err != nil {
			t.Fatal(err)
		}
		q := GreedyQueries(p)
		if first < 0 {
			first = q
		} else if q != first {
			t.Fatalf("run %d: GreedyQueries = %d, run 0 gave %d", i, q, first)
		}
	}
}
