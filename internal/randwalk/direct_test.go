package randwalk

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/expander"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// perWalkDirectWalks is the plain (stay = 0) DirectWalks one walk at a
// time, with its round charge: the oracle DirectWalks must match target
// for target and round for round.
func perWalkDirectWalks(sim *mpc.Sim, g *graph.Graph, t, k int, rng *rand.Rand) ([][]graph.Vertex, error) {
	targets, _ := perWalkLazyWalks(g, t, k, 0, rng)
	chargeTheorem3(sim, g.N(), t)
	return targets, nil
}

// perWalkLazyWalks is DirectWalks one walk at a time, every draw through
// a *rand.PCG of its own: walk w of block bk starts w·walkStride words
// into the block's stream. A lazy walk (stay > 0) draws its move count
// from one word, by a linear scan of the thresholds rather than
// moveCount's bisection; a plain one takes t moves. It also returns each
// walk's move count.
func perWalkLazyWalks(g *graph.Graph, t, k int, stay float64, rng *rand.Rand) ([][]graph.Vertex, [][]int) {
	n := g.N()
	s1, s2 := rng.Uint64(), rng.Uint64()
	var thr []uint64
	if stay > 0 {
		thr = moveThresholds(t, 1-stay)
	}
	targets, counts := make([][]graph.Vertex, n), make([][]int, n)
	for bk := 0; bk*directBlock < n; bk++ {
		sHi, sLo := mpc.StreamSeeds(s1, s2, uint64(bk))
		for v := bk * directBlock; v < n && v < (bk+1)*directBlock; v++ {
			targets[v], counts[v] = make([]graph.Vertex, k), make([]int, k)
			for i := range targets[v] {
				w := (v-bk*directBlock)*k + i
				r := rand.NewPCG(pcgJump(uint64(w)*walkStride).apply(sHi, sLo))
				b := t
				if thr != nil {
					x := r.Uint64()
					for b = 0; x > thr[b]; b++ {
					}
				}
				targets[v][i], counts[v][i] = oracleWalk(g, graph.Vertex(v), b, r), b
			}
		}
	}
	return targets, counts
}

// oracleWalk takes b moves from v with the words of r. On an irregular
// graph each move maps one word to a neighbour by multiply-shift. On a
// d-regular graph the batch rule is written out: a word x is redrawn
// while x·p mod 2⁶⁴ < 2⁶⁴ mod p, and otherwise yields the j base-d digits
// of ⌊x·p/2⁶⁴⌋, most significant first, as the next j indices.
func oracleWalk(g *graph.Graph, v graph.Vertex, b int, r *rand.PCG) graph.Vertex {
	var digits []uint64
	bt := newBatch(uint64(g.MaxDegree()))
	for ; b > 0; b-- {
		ns := g.Neighbors(v, nil)
		if g.MinDegree() != g.MaxDegree() {
			i, _ := bits.Mul64(r.Uint64(), uint64(len(ns)))
			v = ns[i]
			continue
		}
		if len(digits) == 0 {
			x := r.Uint64()
			for x*bt.p < -bt.p%bt.p {
				x = r.Uint64()
			}
			m, _ := bits.Mul64(x, bt.p)
			digits = make([]uint64, bt.j)
			for q := bt.j - 1; q >= 0; q-- {
				digits[q], m = m%bt.d, m/bt.d
			}
		}
		v, digits = ns[digits[0]], digits[1:]
	}
	return v
}

// oracleGraphs are regular graphs (the lane path) and irregular ones
// (the per-walk path) at n = 1, 3, 512 and 700; 700 is not a multiple of
// directBlock, so the last block is short. Their degrees 6, 9 and 18 take
// j = 12, 10 and 7 indices from each word.
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
		{"hypercube-9", gen.Hypercube(9), true},
		{"path-3", gen.Path(3), false},
		{"grid-700", gen.Grid(25, 28), false},
	}
}

// oracleLengths are the walk lengths of the oracle tests: on a regular
// graph they include one and two whole words of moves (j and 2j).
func oracleLengths(g *graph.Graph) []int {
	lens := []int{0, 1, 2, 3, 1009}
	if g.MinDegree() == g.MaxDegree() {
		j := newBatch(uint64(g.MaxDegree())).j
		lens = append(lens, j, 2*j)
	}
	return lens
}

func TestDirectWalksMatchesPerWalkOracle(t *testing.T) {
	for _, gc := range oracleGraphs(t) {
		if got := gc.g.MinDegree() == gc.g.MaxDegree(); got != gc.regular {
			t.Fatalf("%s: regular = %v, want %v", gc.name, got, gc.regular)
		}
		for _, walkLen := range oracleLengths(gc.g) {
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

// Jumping t draws ahead lands on the state t single steps reach, and the
// walk stride, too long to step, is 2¹⁶ jumps of 2¹⁶.
func TestPCGJumpEqualsSingleSteps(t *testing.T) {
	steps := []uint64{1009, 4096, 1 << 16}
	for s := uint64(0); s <= 70; s++ {
		steps = append(steps, s)
	}
	for _, seed := range [][2]uint64{{3, 4}, {^uint64(0), 1}} {
		for _, n := range steps {
			hi, lo := seed[0], seed[1]
			for i := uint64(0); i < n; i++ {
				hi, lo, _ = pcgNext(hi, lo)
			}
			gotHi, gotLo := pcgJump(n).apply(seed[0], seed[1])
			if gotHi != hi || gotLo != lo {
				t.Fatalf("seed %v: jump by %d = (%#x, %#x), %d steps = (%#x, %#x)", seed, n, gotHi, gotLo, n, hi, lo)
			}
		}
		hi, lo := seed[0], seed[1]
		for i := 0; i < 1<<16; i++ {
			hi, lo = pcgJump(1<<16).apply(hi, lo)
		}
		if gotHi, gotLo := pcgJump(walkStride).apply(seed[0], seed[1]); gotHi != hi || gotLo != lo {
			t.Fatalf("seed %v: jump by the stride = (%#x, %#x), 2^16 jumps of 2^16 = (%#x, %#x)", seed, gotHi, gotLo, hi, lo)
		}
	}
}

// The lazy oracle rows on regular graphs must cover the three ways a
// lane's moves can end against its words: a walk of fewer moves than one
// word holds (0 < B < j), one of whole words (B a positive multiple of
// j), and a group of four lanes whose tails leave their lockstep with
// different remainders (B mod j not all equal).
func TestDirectWalksLazyMatchesPerWalkOracle(t *testing.T) {
	var short, whole, mixed bool
	for _, gc := range oracleGraphs(t) {
		j := newBatch(uint64(gc.g.MaxDegree())).j
		for _, walkLen := range oracleLengths(gc.g) {
			for _, k := range []int{1, 2, 3, 4, 5, 40} {
				for _, stay := range []float64{2.0 / 3, 0.5} {
					seed := uint64(walkLen*64 + k)
					want, counts := perWalkLazyWalks(gc.g, walkLen, k, stay, rand.New(rand.NewPCG(seed, 5)))
					for _, workers := range []int{1, -1} {
						got, err := DirectWalks(simWorkers(workers), gc.g, walkLen, k, stay, rand.New(rand.NewPCG(seed, 5)))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s t=%d k=%d stay=%v workers=%d: DirectWalks differs from the per-walk lazy oracle", gc.name, walkLen, k, stay, workers)
						}
					}
					if !gc.regular {
						continue
					}
					for lo := 0; lo < gc.g.N(); lo += directBlock {
						var block []int
						for v := lo; v < min(lo+directBlock, gc.g.N()); v++ {
							block = append(block, counts[v]...)
						}
						for w, b := range block {
							short = short || (b > 0 && b < j)
							whole = whole || (b > 0 && b%j == 0)
							if w%4 == 0 && w+4 <= len(block) {
								lanes := block[w : w+4]
								mixed = mixed || lanes[0]%j != lanes[1]%j || lanes[0]%j != lanes[2]%j || lanes[0]%j != lanes[3]%j
							}
						}
					}
				}
			}
		}
	}
	if !short || !whole || !mixed {
		t.Errorf("lazy oracle rows cover B < j: %v, B a multiple of j: %v, lanes with different remainders: %v; want all three", short, whole, mixed)
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

// The batch rule's size, product and threshold for degrees from 1 (j
// capped at 64) to past 2³² (one index per word).
func TestBatchRule(t *testing.T) {
	pow := func(d uint64, j int) uint64 {
		p := uint64(1)
		for ; j > 0; j-- {
			p *= d
		}
		return p
	}
	for _, c := range []struct {
		d uint64
		j int
	}{{1, 64}, {2, 32}, {3, 20}, {9, 10}, {27, 6}, {1000, 3}, {65535, 2}, {65537, 1}, {1 << 33, 1}} {
		bt := newBatch(c.d)
		if bt.d != c.d || bt.j != c.j || bt.p != pow(c.d, c.j) {
			t.Errorf("d=%d: j=%d p=%d, want j=%d p=%d", c.d, bt.j, bt.p, c.j, pow(c.d, c.j))
		}
		if thr := new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).SetUint64(bt.p)); bt.thr != thr.Uint64() {
			t.Errorf("d=%d: threshold %d, want 2^64 mod p = %s", c.d, bt.thr, thr)
		}
	}
}

// A word is rejected exactly when x·p mod 2⁶⁴ < 2⁶⁴ mod p. The words are
// crafted to put x·p mod 2⁶⁴ at the threshold and one step either side
// of it (a step is the largest power of two dividing p, the spacing of
// the values x·p mod 2⁶⁴ can take), and the rule is checked in math/big.
func TestBatchRejection(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, d := range []uint64{1, 2, 3, 9, 27, 1000, 65535, 65537, 1 << 33} {
		bt := newBatch(d)
		p := new(big.Int).SetUint64(bt.p)
		thr := new(big.Int).Mod(two64, p)
		g := new(big.Int).Lsh(big.NewInt(1), uint(bits.TrailingZeros64(bt.p)))
		inv := new(big.Int).ModInverse(new(big.Int).Quo(p, g), two64)
		for _, delta := range []int64{-1, 0, 1} {
			target := new(big.Int).Add(thr, new(big.Int).Mul(big.NewInt(delta), g))
			if target.Sign() < 0 {
				continue
			}
			// x·p ≡ (target/g)·q⁻¹·q·g = target mod 2⁶⁴, where p = q·g.
			x := new(big.Int).Mul(new(big.Int).Quo(target, g), inv)
			x.Mod(x, two64)
			low := new(big.Int).Mod(new(big.Int).Mul(x, p), two64)
			if low.Cmp(target) != 0 {
				t.Fatalf("d=%d: crafted x·p mod 2^64 = %s, want %s", d, low, target)
			}
			if got, want := bt.rejects(x.Uint64()), low.Cmp(thr) < 0; got != want {
				t.Errorf("d=%d x=%#x (x·p mod 2^64 = threshold %+d·%s): rejects = %v, want %v", d, x.Uint64(), delta, g, got, want)
			}
		}
	}
}

// At d = 9 (j = 10) every index position and every pair of neighbouring
// positions is uniform over 10⁶ accepted words: chi-square with 8 and 80
// degrees of freedom, bounds at a p-value near 10⁻⁵.
func TestBatchIndicesUniform(t *testing.T) {
	const words, d = 1_000_000, 9
	bt := newBatch(d)
	var single [10][d]float64
	var pair [9][d * d]float64
	hi, lo := uint64(21), uint64(22)
	for n := 0; n < words; n++ {
		var r uint64
		hi, lo, r = bt.next(hi, lo)
		var idx [10]uint64
		for i := range idx {
			idx[i], r = bits.Mul64(r, d)
			single[i][idx[i]]++
		}
		for i := 0; i+1 < len(idx); i++ {
			pair[i][idx[i]*d+idx[i+1]]++
		}
	}
	chi2 := func(counts []float64) float64 {
		want := float64(words) / float64(len(counts))
		s := 0.0
		for _, c := range counts {
			s += (c - want) * (c - want) / want
		}
		return s
	}
	for i := range single {
		if x := chi2(single[i][:]); x > 37 {
			t.Errorf("position %d: chi-square %.1f over 9 cells, bound 37", i, x)
		}
	}
	for i := range pair {
		if x := chi2(pair[i][:]); x > 140 {
			t.Errorf("positions (%d, %d): chi-square %.1f over 81 cells, bound 140", i, i+1, x)
		}
	}
}
