package randwalk

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/expander"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// perWalkDirectWalks is DirectWalks as it was before the regular path ran
// its walks side by side on jump-ahead lanes: one walk at a time, every
// draw through the block's *rand.PCG. It is kept as the oracle the lane
// kernel must match target for target.
func perWalkDirectWalks(sim *mpc.Sim, g *graph.Graph, t, k int, rng *rand.Rand) ([][]graph.Vertex, error) {
	n := g.N()
	s1, s2 := rng.Uint64(), rng.Uint64()
	targets := make([][]graph.Vertex, n)
	deg := 0
	if n > 0 && g.MinDegree() == g.MaxDegree() {
		deg = g.MaxDegree()
	}
	_, adj := g.CSR()
	blocks := (n + directBlock - 1) / directBlock
	sim.Executor().Run(blocks, func(bk int) {
		lo, hi := bk*directBlock, (bk+1)*directBlock
		if hi > n {
			hi = n
		}
		r := mpc.StreamPCG(s1, s2, uint64(bk))
		for v := lo; v < hi; v++ {
			row := make([]graph.Vertex, k)
			for b := 0; b < k; b++ {
				cur := graph.Vertex(v)
				if deg > 0 {
					for step := 0; step < t; step++ {
						cur = adj[int64(cur)*int64(deg)+int64(pcgIndex(r, deg))]
					}
				} else {
					for step := 0; step < t; step++ {
						ns := g.Neighbors(cur, nil)
						cur = ns[pcgIndex(r, len(ns))]
					}
				}
				row[b] = cur
			}
			targets[v] = row
		}
	})
	chargeTheorem3(sim, n, t)
	return targets, nil
}

// oracleGraphs are lazy regular graphs (the lane path) and irregular ones
// (the per-walk path) at n = 1, 3 and 700; 700 is not a multiple of
// directBlock, so the last block is short.
func oracleGraphs(t *testing.T) []struct {
	name    string
	g       *graph.Graph
	regular bool
} {
	t.Helper()
	ex, err := expander.SamplePermutationRegular(700, 6, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		g       *graph.Graph
		regular bool
	}{
		{"lazy-single", graph.AddSelfLoops(graph.NewBuilder(1).Build(), 3), true},
		{"lazy-triangle", graph.AddSelfLoops(gen.Cycle(3), 2), true},
		{"lazy-expander-700", graph.AddSelfLoops(ex, 6), true},
		{"path-3", gen.Path(3), false},
		{"grid-700", gen.Grid(25, 28), false},
	}
}

func TestDirectWalksMatchesPerWalkOracle(t *testing.T) {
	for _, gc := range oracleGraphs(t) {
		if got := gc.g.MinDegree() == gc.g.MaxDegree(); got != gc.regular {
			t.Fatalf("%s: regular = %v, want %v", gc.name, got, gc.regular)
		}
		for _, walkLen := range []int{0, 1, 2, 3, 1009} {
			for _, k := range []int{1, 2, 3, 4, 5, 40} {
				seed := uint64(walkLen*64 + k)
				ref := simWorkers(1)
				want, err := perWalkDirectWalks(ref, gc.g, walkLen, k, rand.New(rand.NewPCG(seed, 3)))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, -1} {
					s := simWorkers(workers)
					got, err := DirectWalks(s, gc.g, walkLen, k, rand.New(rand.NewPCG(seed, 3)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s t=%d k=%d workers=%d: DirectWalks differs from the per-walk oracle", gc.name, walkLen, k, workers)
					}
					if s.Stats().Rounds != ref.Stats().Rounds {
						t.Fatalf("%s t=%d k=%d workers=%d: %d rounds, oracle %d", gc.name, walkLen, k, workers, s.Stats().Rounds, ref.Stats().Rounds)
					}
				}
			}
		}
	}
}

// The inline lane generator is math/rand/v2's PCG word for word.
func TestPCGNextMatchesRandPCG(t *testing.T) {
	for _, seed := range [][2]uint64{{0, 0}, {1, 2}, {^uint64(0), ^uint64(0)}, {0x9e3779b97f4a7c15, 42}} {
		hi, lo := seed[0], seed[1]
		r := rand.NewPCG(hi, lo)
		for i := 0; i < 10000; i++ {
			var x uint64
			hi, lo, x = pcgNext(hi, lo)
			if want := r.Uint64(); x != want {
				t.Fatalf("seed %v draw %d: pcgNext = %#x, PCG.Uint64 = %#x", seed, i, x, want)
			}
		}
	}
	hi, lo := mpc.StreamSeeds(7, 8, 9)
	r := mpc.StreamPCG(7, 8, 9)
	for i := 0; i < 100; i++ {
		var x uint64
		hi, lo, x = pcgNext(hi, lo)
		if want := r.Uint64(); x != want {
			t.Fatalf("StreamSeeds draw %d: %#x, StreamPCG %#x", i, x, want)
		}
	}
}

// Jumping t draws ahead lands on the state t single steps reach.
func TestPCGJumpEqualsSingleSteps(t *testing.T) {
	steps := []int{1009, 4096}
	for s := 0; s <= 70; s++ {
		steps = append(steps, s)
	}
	for _, seed := range [][2]uint64{{3, 4}, {^uint64(0), 1}} {
		for _, n := range steps {
			hi, lo := seed[0], seed[1]
			for i := 0; i < n; i++ {
				hi, lo, _ = pcgNext(hi, lo)
			}
			gotHi, gotLo := pcgJump(n).apply(seed[0], seed[1])
			if gotHi != hi || gotLo != lo {
				t.Fatalf("seed %v: jump by %d = (%#x, %#x), %d steps = (%#x, %#x)", seed, n, gotHi, gotLo, n, hi, lo)
			}
		}
	}
}
