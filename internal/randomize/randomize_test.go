package randomize

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/expander"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/randwalk"
	"repro/internal/spectral"
)

func sim() *mpc.Sim { return mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 64}) }

func TestRandomizePreservesComponents(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	// Two regular expanders of different sizes, disjoint.
	g1, _ := expander.SamplePermutationRegular(40, 6, rng)
	g2, _ := expander.SamplePermutationRegular(70, 6, rng)
	l, err := gen.DisjointUnion(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	T := spectral.MixingTimeUpperBound(0.3, l.G.N(), 1e-4)
	h, stats, err := Randomize(sim(), l.G, T, PracticalParams(l.G.N()), rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != l.G.N() {
		t.Fatalf("vertex set changed: %d -> %d", l.G.N(), h.N())
	}
	if h.M() != l.G.N()*stats.WalksPerVertex {
		t.Errorf("edges = %d, want n·k = %d", h.M(), l.G.N()*stats.WalksPerVertex)
	}
	hLabels, hCount := graph.Components(h)
	if hCount != 2 {
		t.Fatalf("H has %d components, want 2 (each whp connected)", hCount)
	}
	if !graph.SameLabeling(hLabels, l.Labels) {
		t.Error("components not preserved")
	}
}

func TestRandomizeRejectsIrregular(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	if _, _, err := Randomize(sim(), gen.Star(5), 4, PracticalParams(5), rng); err == nil {
		t.Error("want error for non-regular input")
	}
}

func TestRandomizeRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.Cycle(6)
	if _, _, err := Randomize(sim(), g, 0, PracticalParams(6), rng); err == nil {
		t.Error("want error for zero walk length")
	}
	if _, _, err := Randomize(sim(), g, 3, Params{WalksPerVertex: 0, Walk: randwalk.PracticalParams()}, rng); err == nil {
		t.Error("want error for zero walks per vertex")
	}
}

func TestRandomizeEmpty(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	h, _, err := Randomize(sim(), graph.NewBuilder(0).Build(), 3, PracticalParams(0), rng)
	if err != nil || h.N() != 0 {
		t.Errorf("empty graph: %v, %v", h, err)
	}
}

// Walk targets after a mixing-time-length lazy walk should be near-uniform
// over the component: the degree distribution of H should concentrate
// around 2k (Proposition 2.3 behaviour).
func TestRandomizeDegreeConcentration(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g, _ := expander.SamplePermutationRegular(120, 8, rng)
	T := spectral.MixingTimeUpperBound(0.4, 120, 1e-2)
	params := PracticalParams(120) // k = 4·7 = 28
	h, _, err := Randomize(sim(), g, T, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	k := params.WalksPerVertex
	// Each vertex sends k edges and receives ≈ k more: expect ≈ 2k ± 50%.
	if !h.AlmostRegular(float64(2*k), 0.5) {
		t.Errorf("degrees not concentrated near 2k=%d: min=%d max=%d", 2*k, h.MinDegree(), h.MaxDegree())
	}
}

// Empirical uniformity: the target of a length-T lazy walk from any vertex
// should be within small TV distance of uniform over the component.
func TestRandomizeTargetUniformity(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	g, _ := expander.SamplePermutationRegular(50, 8, rng)
	gap := spectral.Lambda2(g)
	T := spectral.MixingTimeUpperBound(gap, 50, 1e-3)
	lazy := graph.AddSelfLoops(g, 8)
	dist := spectral.WalkDistribution(lazy, 0, T, false)
	support := make([]graph.Vertex, 50)
	for i := range support {
		support[i] = graph.Vertex(i)
	}
	if tv := spectral.TVDistanceToUniform(dist, support); tv > 0.01 {
		t.Errorf("walk distribution TV from uniform = %.4f at T=%d", tv, T)
	}
}

// TestBatchesParallelCharging: three parallel batches charge the rounds
// of one, under either engine, and draw distinct samples.
func TestBatchesParallelCharging(t *testing.T) {
	for _, engine := range []Engine{EngineDirect, EngineLayered} {
		rng := rand.New(rand.NewPCG(7, 7))
		g, _ := expander.SamplePermutationRegular(30, 6, rng)
		params := PracticalParams(30)
		params.Engine = engine
		one := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 8})
		if _, _, err := Randomize(one, g, 8, params, rng); err != nil {
			t.Fatal(err)
		}
		many := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 8})
		gs, stats, err := Batches(many, g, 8, 3, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != 3 {
			t.Fatalf("engine %d: got %d batches", engine, len(gs))
		}
		if many.Rounds() != one.Rounds() {
			t.Errorf("engine %d: 3 parallel batches charged %d rounds, single batch %d", engine, many.Rounds(), one.Rounds())
		}
		if stats.CertifiedFraction <= 0 {
			t.Errorf("engine %d: certified fraction not aggregated", engine)
		}
		// Batches must be distinct samples.
		if gs[0].Edges()[0] == gs[1].Edges()[0] && gs[0].Edges()[1] == gs[1].Edges()[1] &&
			gs[0].Edges()[2] == gs[1].Edges()[2] && gs[0].Edges()[3] == gs[1].Edges()[3] {
			t.Errorf("engine %d: batches look identical; fresh randomness not used", engine)
		}
	}
}

// Three Direct-engine batches on two CPUs: one batch runs alone at the
// tail, and its walk blocks recruit the token a finished batch gave back
// (or the CPU an idle caller lent). The batch graphs, their statistics and
// the round count must still be bit-identical to the sequential run.
func TestBatchesDeterministicOnTwoCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := expander.SamplePermutationRegular(1024, 6, rand.New(rand.NewPCG(11, 11)))
	if err != nil {
		t.Fatal(err)
	}
	params := PracticalParams(g.N())
	type result struct {
		graphs []*graph.Graph
		stats  Stats
		rounds int
	}
	run := func(workers int) result {
		s := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 64, Workers: workers})
		gs, stats, err := Batches(s, g, 16, 3, params, rand.New(rand.NewPCG(12, 12)))
		if err != nil {
			t.Fatal(err)
		}
		return result{gs, stats, s.Rounds()}
	}
	want := run(1)
	for rep := 0; rep < 3; rep++ {
		if got := run(-1); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Workers -1 diverged from Workers 1 (rounds %d vs %d)", rep, got.rounds, want.rounds)
		}
	}
}
