package randwalk

import (
	"math"
	"math/big"
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
					got, err := DirectWalks(s, gc.g, walkLen, k, 0, rand.New(rand.NewPCG(seed, 3)))
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

// perWalkLazyWalks is the lazy path of DirectWalks one walk at a time,
// every draw through the block's *rand.PCG: walk w of a block reads the
// slot [w·(t+1), (w+1)·(t+1)) of the block's stream — its move count,
// then its moves — and discards the rest of the slot draw by draw. The
// move count comes from a linear scan of the thresholds, not moveCount's
// bisection. It is the oracle the lane kernel's lazy path must match.
func perWalkLazyWalks(g *graph.Graph, t, k int, stay float64, rng *rand.Rand) [][]graph.Vertex {
	n := g.N()
	s1, s2 := rng.Uint64(), rng.Uint64()
	thr := moveThresholds(t, 1-stay)
	targets := make([][]graph.Vertex, n)
	for bk := 0; bk*directBlock < n; bk++ {
		r := mpc.StreamPCG(s1, s2, uint64(bk))
		for v := bk * directBlock; v < n && v < (bk+1)*directBlock; v++ {
			row := make([]graph.Vertex, k)
			for w := range row {
				x, b := r.Uint64(), 0
				for x > thr[b] {
					b++
				}
				cur := graph.Vertex(v)
				for step := 0; step < b; step++ {
					ns := g.Neighbors(cur, nil)
					cur = ns[pcgIndex(r, len(ns))]
				}
				for step := b; step < t; step++ {
					r.Uint64()
				}
				row[w] = cur
			}
			targets[v] = row
		}
	}
	return targets
}

func TestDirectWalksLazyMatchesPerWalkOracle(t *testing.T) {
	for _, gc := range oracleGraphs(t) {
		for _, walkLen := range []int{0, 1, 2, 3, 1009} {
			for _, k := range []int{1, 2, 3, 4, 5, 40} {
				for _, stay := range []float64{2.0 / 3, 0.5} {
					seed := uint64(walkLen*64 + k)
					want := perWalkLazyWalks(gc.g, walkLen, k, stay, rand.New(rand.NewPCG(seed, 5)))
					for _, workers := range []int{1, -1} {
						got, err := DirectWalks(simWorkers(workers), gc.g, walkLen, k, stay, rand.New(rand.NewPCG(seed, 5)))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s t=%d k=%d stay=%v workers=%d: DirectWalks differs from the per-walk lazy oracle", gc.name, walkLen, k, stay, workers)
						}
					}
				}
			}
		}
	}
}

func TestDirectWalksLazyDeterministicAcrossExecutors(t *testing.T) {
	ex, err := expander.SamplePermutationRegular(700, 6, rand.New(rand.NewPCG(8, 9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{ex, testGraph(t, "grid")} {
		run := func(workers int) [][]graph.Vertex {
			targets, err := DirectWalks(simWorkers(workers), g, 301, 7, 2.0/3, rand.New(rand.NewPCG(41, 43)))
			if err != nil {
				t.Fatal(err)
			}
			return targets
		}
		want := run(1)
		for _, workers := range []int{-1, 4} {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: lazy DirectWalks diverged from sequential", g.N(), workers)
			}
		}
	}
}

// lawGraph is a small 4-regular graph that, like the regularizer's
// output, carries its own self-loops on half of its vertices: the cycle
// 0..7, a loop at every even vertex and the chords 1–3, 3–7, 7–5, 5–1
// between the odd ones.
func lawGraph() *graph.Graph {
	b := graph.NewBuilder(8)
	for v := 0; v < 8; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex((v+1)%8))
		if v%2 == 0 {
			b.AddEdge(graph.Vertex(v), graph.Vertex(v))
		}
	}
	for _, e := range [][2]graph.Vertex{{1, 3}, {3, 7}, {7, 5}, {5, 1}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// The lazy path samples the law of the self-looped graph it replaces:
// walks of DirectWalks(H, stay 2/3) end where t plain steps of
// AddSelfLoops(H, Δ) end, whose exact distribution comes from t
// matrix–vector products over that graph's adjacency lists. With 20000
// walks from each of the 8 starts, the sampling error alone puts the
// total variation near 0.01; the bound is 0.03.
func TestDirectWalksLazyMatchesExactLaw(t *testing.T) {
	const walkLen, k, bound = 7, 20000, 0.03
	h := lawGraph()
	const delta = 4
	if !h.IsRegular(delta) {
		t.Fatalf("law graph is not %d-regular", delta)
	}
	loops := graph.AddSelfLoops(h, delta)
	targets, err := DirectWalks(simWorkers(-1), h, walkLen, k, 2.0/3, rand.New(rand.NewPCG(12, 34)))
	if err != nil {
		t.Fatal(err)
	}
	n := h.N()
	for s := 0; s < n; s++ {
		dist := make([]float64, n)
		dist[s] = 1
		for step := 0; step < walkLen; step++ {
			next := make([]float64, n)
			for v, p := range dist {
				ns := loops.Neighbors(graph.Vertex(v), nil)
				for _, u := range ns {
					next[u] += p / float64(len(ns))
				}
			}
			dist = next
		}
		count := make([]float64, n)
		for _, u := range targets[s] {
			count[u]++
		}
		tv := 0.0
		for v := range dist {
			tv += math.Abs(count[v]/k-dist[v]) / 2
		}
		if tv > bound {
			t.Errorf("start %d: TV %.4f from the exact %d-step law of AddSelfLoops(H, %d), bound %.2f", s, tv, walkLen, delta, bound)
		}
	}
}

func TestMoveThresholds(t *testing.T) {
	if thr := moveThresholds(0, 1.0/3); len(thr) != 1 || thr[0] != math.MaxUint64 || moveCount(thr, math.MaxUint64) != 0 {
		t.Fatalf("t = 0: thresholds %v, want a single MaxUint64 (B = 0)", thr)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for _, walkLen := range []int{1, 2, 7, 1009, 4096} {
		for _, p := range []float64{1.0 / 3, 0.5, 0.9} {
			thr := moveThresholds(walkLen, p)
			if len(thr) != walkLen+1 || thr[walkLen] != math.MaxUint64 {
				t.Fatalf("t=%d p=%v: %d entries ending in %#x, want %d ending in MaxUint64", walkLen, p, len(thr), thr[len(thr)-1], walkLen+1)
			}
			mean, prev := 0.0, 0.0
			for b := range thr {
				if b > 0 && thr[b] < thr[b-1] {
					t.Fatalf("t=%d p=%v: thresholds fall at %d", walkLen, p, b)
				}
				c := math.Ldexp(float64(thr[b]), -64)
				mean += float64(b) * (c - prev)
				prev = c
			}
			if want := float64(walkLen) * p; math.Abs(mean-want) > 1e-9*want {
				t.Errorf("t=%d p=%v: mean move count %.12f, want %.12f", walkLen, p, mean, want)
			}
			// moveCount's bisection is the first threshold at or above x.
			words := []uint64{0, 1, math.MaxUint64}
			for _, b := range []int{0, walkLen / 3, walkLen - 1} {
				words = append(words, thr[b], thr[b]+1)
			}
			for i := 0; i < 1000; i++ {
				words = append(words, r.Uint64())
			}
			for _, x := range words {
				want := 0
				for x > thr[want] {
					want++
				}
				if got := moveCount(thr, x); got != want {
					t.Fatalf("t=%d p=%v: moveCount(%#x) = %d, want %d", walkLen, p, x, got, want)
				}
			}
		}
	}
}

// At stay 2/3, P(B ≤ b) = Σ_{i≤b} C(t, i)·2^{t−i} / 3^t exactly, so the
// thresholds can be checked against ⌊P(B ≤ b)·2⁶⁴⌋ in integer arithmetic.
func TestMoveThresholdsMatchExactCDF(t *testing.T) {
	for _, walkLen := range []int{1, 10, 1009, 4096} {
		thr := moveThresholds(walkLen, 1.0/3)
		den := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(walkLen)), nil)
		binom, cum := big.NewInt(1), new(big.Int)
		worst := 0.0
		for b := 0; b < walkLen; b++ {
			if b > 0 {
				binom.Mul(binom, big.NewInt(int64(walkLen-b+1)))
				binom.Quo(binom, big.NewInt(int64(b)))
			}
			cum.Add(cum, new(big.Int).Lsh(binom, uint(walkLen-b)))
			exact := new(big.Int).Lsh(cum, 64)
			exact.Quo(exact, den)
			diff, _ := new(big.Float).SetInt(exact.Sub(exact, new(big.Int).SetUint64(thr[b]))).Float64()
			worst = max(worst, math.Abs(math.Ldexp(diff, -64)))
		}
		if worst > 2e-13 {
			t.Errorf("t=%d: a threshold is %.3g from the exact CDF, bound 2e-13", walkLen, worst)
		}
	}
}

func TestDirectWalksRejectsStay(t *testing.T) {
	for _, stay := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := DirectWalks(simWorkers(1), gen.Cycle(5), 4, 2, stay, rand.New(rand.NewPCG(1, 1))); err == nil {
			t.Errorf("stay %v accepted", stay)
		}
	}
}
