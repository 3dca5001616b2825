package randwalk

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// DirectWalks samples k mutually independent length-t walks from every
// vertex by direct simulation. Each step stays put with probability stay
// and otherwise moves to a uniform entry of the vertex's adjacency list;
// stay = 0 is the plain walk of g. The joint distribution of the returned
// targets is exactly the product ⊗_{v,b} D_RW(v, t) — the ideal object
// that Theorem 3's layered-graph data structure approximates (certifying
// independence for a 1/2 fraction per instance and repeating Θ(log n)
// times). The layered-graph engine costs Θ(n·t²) memory, which is the
// paper's own machine budget (O(t²·n^{1−δ}) machines in Theorem 3) but is
// hostile to a single-host simulation at realistic T; direct simulation
// costs O(n·k·t) time and O(n·k) memory.
//
// A lazy walk (stay > 0) never draws its stays. The endpoint after t lazy
// steps has exactly the law of a plain walk of B steps, B ~ Binomial(t,
// 1−stay), so each walk draws B once, by inverting a table of 64-bit
// Binomial CDF thresholds (moveThresholds, built once per call), and then
// takes only its B moves. At stay = 2/3 every table entry is within
// 1.4·10⁻¹³ of the exact CDF up to t = 4096 (core's MaxWalkLength), so
// the law of B is within (t+1)·1.4·10⁻¹³ < 10⁻⁹ of Binomial(t, 1−stay)
// in total variation.
//
// Round accounting still follows Theorem 3 — 1 sampling round plus
// 2·⌈log₂ t⌉ pointer-doubling/marking phases, each a parallel search over
// the layered graph of n·2t·(t+1) records — because that is what the
// algorithm would cost on a real cluster. The substitution is direct
// sampling for the layered-graph structure, with Theorem 3's round
// accounting kept; ablation A3 (A3WalkEngines in internal/bench) measures
// both engines side by side.
//
// Fixed-size vertex blocks each walk on their own StreamRNG substream
// keyed by block index, so the blocks parallelize across the executor
// without the output depending on the schedule. Walk w of a block (walk
// w%k of its vertex w/k) starts walkStride = 2³² words after walk w−1 of
// the block's stream, reached by one precomputed jump-ahead map. A lazy
// walk (stay > 0) first draws B from one word; then it takes its moves.
// A walk reads at most 1 + t words plus rejected ones, far fewer than the
// stride, so no walk reaches the words of the next one.
//
// On a regular graph of degree d the moves take several exact indices
// from each word (batch, after D. Lemire, "Fast Random Integer Generation
// in an Interval", ACM TOMACS 2019, and N. Brackett-Rozinsky and D.
// Lemire, "Batched Ranged Random Integer Generation", arXiv:2408.06213):
// j indices per word, where j is the largest count with d^j ≤ 2³²
// (j = 10 at d = 9). A word is redrawn with probability below 2⁻³², and
// every j-tuple of indices it yields is exactly uniform on [0, d)^j. The
// walks of a block run four at a time on jump-ahead lanes of the stream
// (walkLanes), each lane reading exactly the words its walk would read
// alone, so the targets depend on neither the lane count nor the worker
// count. On an irregular graph each move takes one word, reduced to a
// neighbour index by Lemire's multiply-shift without rejection (bias
// below deg(v)·2⁻⁶⁴ per move).
func DirectWalks(sim *mpc.Sim, g *graph.Graph, t, k int, stay float64, rng *rand.Rand) ([][]graph.Vertex, error) {
	n := g.N()
	if t < 0 {
		return nil, fmt.Errorf("randwalk: negative walk length %d", t)
	}
	if k < 0 {
		return nil, fmt.Errorf("randwalk: negative walk count %d", k)
	}
	if !(stay >= 0 && stay < 1) {
		return nil, fmt.Errorf("randwalk: stay probability %v outside [0, 1)", stay)
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			return nil, fmt.Errorf("randwalk: vertex %d is isolated", v)
		}
	}
	s1, s2 := rng.Uint64(), rng.Uint64()
	targets := make([][]graph.Vertex, n)
	// Regular-graph fast path: neighbors of v are adj[v*d:(v+1)*d], so the
	// step needs one memory access instead of three (the regular graphs
	// of Step 2 — the hottest walk workload — always take it).
	deg := 0
	if n > 0 && g.MinDegree() == g.MaxDegree() {
		deg = g.MaxDegree()
	}
	_, adj := g.CSR()
	var moves []uint64
	if stay > 0 {
		moves = moveThresholds(t, 1-stay)
	}
	stride := pcgJump(walkStride)
	blocks := (n + directBlock - 1) / directBlock
	sim.Executor().Run(blocks, func(bk int) {
		lo, hi := bk*directBlock, (bk+1)*directBlock
		if hi > n {
			hi = n
		}
		rows := make([]graph.Vertex, (hi-lo)*k)
		for v := lo; v < hi; v++ {
			i := (v - lo) * k
			targets[v] = rows[i : i+k : i+k]
		}
		sHi, sLo := mpc.StreamSeeds(s1, s2, uint64(bk))
		if deg > 0 {
			walkLanes(rows, adj, newBatch(uint64(deg)), lo, k, t, moves, stride, sHi, sLo)
			return
		}
		for w := range rows {
			h, l, b := drawMoves(moves, t, sHi, sLo)
			cur := graph.Vertex(lo + w/k)
			for ; b > 0; b-- {
				var x uint64
				h, l, x = pcgNext(h, l)
				ns := g.Neighbors(cur, nil)
				i, _ := bits.Mul64(x, uint64(len(ns)))
				cur = ns[i]
			}
			rows[w] = cur
			sHi, sLo = stride.apply(sHi, sLo)
		}
	})
	chargeTheorem3(sim, n, t)
	return targets, nil
}

// walkStride is the distance, in stream words, between the first words
// of consecutive walks of a DirectWalks block.
const walkStride = 1 << 32

// batch is DirectWalks' rule for taking j exact indices in [0, d) from
// one 64-bit word: j is the largest count with p = d^j ≤ 2³² (at least 1,
// and at most 64 so that d = 1 terminates). A word x is accepted when
// x·p mod 2⁶⁴ ≥ thr = 2⁶⁴ mod p, and its indices are then read by j
// multiply-shift reductions, i, r = bits.Mul64(r, d) from r = x. The j
// reductions leave r = x·p mod 2⁶⁴ and read off the base-d digits of
// ⌊x·p/2⁶⁴⌋, most significant first; on accepted words that value is
// uniform on [0, p) (Lemire's rejection), so the j indices are
// independent and exactly uniform. A word is rejected with probability
// thr/2⁶⁴ < p/2⁶⁴, which is below 2⁻³² whenever d ≤ 2³².
type batch struct {
	d, p, thr uint64
	j         int
}

func newBatch(d uint64) batch {
	b := batch{d: d, p: 1}
	for b.j < 64 && b.p <= 1<<32/d {
		b.p *= d
		b.j++
	}
	if b.j == 0 {
		b.p, b.j = d, 1
	}
	b.thr = -b.p % b.p
	return b
}

// rejects reports whether the rule redraws the word x.
func (b batch) rejects(x uint64) bool { return x*b.p < b.thr }

// next draws words from the stream state (hi, lo) until one is accepted,
// and returns the state after it with the accepted word.
func (b batch) next(hi, lo uint64) (uint64, uint64, uint64) {
	for {
		var x uint64
		hi, lo, x = pcgNext(hi, lo)
		if !b.rejects(x) {
			return hi, lo, x
		}
	}
}

// walkLanes runs the walks of one regular-graph block: walk w starts at
// vertex first + w/k, takes its moves on the bt.d-regular adjacency adj,
// and writes its endpoint to out[w]. (sHi, sLo) is the block stream's
// state before its first draw, and stride advances a state by one walk's
// share of the stream. A walk takes t moves when moves is nil; otherwise
// its first draw picks its move count from the thresholds in moves. Its
// moves then read bt.j indices from each accepted word.
//
// One walk leaves two serial dependency chains per move: the adj load
// that needs the previous vertex, and the remainder that the next index
// is read from. Four walks run side by side instead, each on its own lane
// of the stream: lane n starts n strides ahead, so the four chains
// overlap in the pipeline and every walk still reads exactly the words it
// would read alone. The lanes run in lockstep for the smallest of their
// four move counts, so all four are at the same index of their words and
// refill together, every bt.j moves, on one shared count. Each lane then
// finishes its own tail alone, from its own remainder and count.
//
//wcc:hotpath
func walkLanes(out, adj []graph.Vertex, bt batch, first, k, t int, moves []uint64, stride lcg, sHi, sLo uint64) {
	d, deg := bt.d, int64(bt.d)
	w := 0
	for ; w+4 <= len(out); w += 4 {
		h0, l0 := sHi, sLo
		h1, l1 := stride.apply(h0, l0)
		h2, l2 := stride.apply(h1, l1)
		h3, l3 := stride.apply(h2, l2)
		sHi, sLo = stride.apply(h3, l3)
		h0, l0, b0 := drawMoves(moves, t, h0, l0)
		h1, l1, b1 := drawMoves(moves, t, h1, l1)
		h2, l2, b2 := drawMoves(moves, t, h2, l2)
		h3, l3, b3 := drawMoves(moves, t, h3, l3)
		c0 := int64(first + w/k)
		c1 := int64(first + (w+1)/k)
		c2 := int64(first + (w+2)/k)
		c3 := int64(first + (w+3)/k)
		common := min(b0, b1, b2, b3)
		var r0, r1, r2, r3 uint64
		left := 0 // indices not yet read from each lane's word
		for done := 0; done < common; done += bt.j {
			h0, l0, r0 = bt.next(h0, l0)
			h1, l1, r1 = bt.next(h1, l1)
			h2, l2, r2 = bt.next(h2, l2)
			h3, l3, r3 = bt.next(h3, l3)
			n := min(bt.j, common-done)
			left = bt.j - n
			for ; n > 0; n-- {
				var i0, i1, i2, i3 uint64
				i0, r0 = bits.Mul64(r0, d)
				i1, r1 = bits.Mul64(r1, d)
				i2, r2 = bits.Mul64(r2, d)
				i3, r3 = bits.Mul64(r3, d)
				c0 = int64(adj[c0*deg+int64(i0)])
				c1 = int64(adj[c1*deg+int64(i1)])
				c2 = int64(adj[c2*deg+int64(i2)])
				c3 = int64(adj[c3*deg+int64(i3)])
			}
		}
		out[w] = walkRegular(adj, bt, c0, b0-common, left, r0, h0, l0)
		out[w+1] = walkRegular(adj, bt, c1, b1-common, left, r1, h1, l1)
		out[w+2] = walkRegular(adj, bt, c2, b2-common, left, r2, h2, l2)
		out[w+3] = walkRegular(adj, bt, c3, b3-common, left, r3, h3, l3)
	}
	for ; w < len(out); w++ {
		hi, lo, b := drawMoves(moves, t, sHi, sLo)
		out[w] = walkRegular(adj, bt, int64(first+w/k), b, 0, 0, hi, lo)
		sHi, sLo = stride.apply(sHi, sLo)
	}
}

// walkRegular takes b moves from vertex c on the bt.d-regular adjacency
// adj and returns the endpoint. The first left moves read the remainder r
// of a word already drawn; after that it draws words from the stream
// state (hi, lo).
//
//wcc:hotpath
func walkRegular(adj []graph.Vertex, bt batch, c int64, b, left int, r, hi, lo uint64) graph.Vertex {
	d, deg := bt.d, int64(bt.d)
	for ; b > 0; b-- {
		if left == 0 {
			hi, lo, r = bt.next(hi, lo)
			left = bt.j
		}
		left--
		var i uint64
		i, r = bits.Mul64(r, d)
		c = int64(adj[c*deg+int64(i)])
	}
	return graph.Vertex(c)
}

// moveThresholds returns the inverse-CDF table of B ~ Binomial(t, p):
// entry b is ⌊P(B ≤ b)·2⁶⁴⌋ and entry t is MaxUint64, so moveCount maps a
// uniform 64-bit word to B. The probabilities are summed in log space
// (math.Lgamma), because the plain products underflow — P(B = 0) =
// (2/3)^4096 at stay 2/3 and core's MaxWalkLength is below the smallest
// float64 — while the terms that matter stay representable. At p = 1/3
// the entries are within 4.5·10⁻¹⁴ of the exact CDF at t = 1009 and
// 1.4·10⁻¹³ at t = 4096 (TestMoveThresholdsMatchExactCDF checks them in
// integer arithmetic).
func moveThresholds(t int, p float64) []uint64 {
	lp, lq := math.Log(p), math.Log1p(-p)
	lt, _ := math.Lgamma(float64(t + 1))
	pmf := make([]float64, t+1)
	sum := 0.0
	for b := range pmf {
		lb, _ := math.Lgamma(float64(b + 1))
		lr, _ := math.Lgamma(float64(t - b + 1))
		pmf[b] = math.Exp(lt - lb - lr + float64(b)*lp + float64(t-b)*lq)
		sum += pmf[b]
	}
	thr := make([]uint64, t+1)
	cum := 0.0
	for b := 0; b < t; b++ {
		cum += pmf[b]
		if c := math.Ldexp(cum/sum, 64); c < 1<<64 {
			thr[b] = uint64(c)
		} else {
			thr[b] = math.MaxUint64
		}
	}
	thr[t] = math.MaxUint64
	return thr
}

// drawMoves returns a walk's move count and the stream state after the
// draw that picked it: t, with no draw, when moves is nil (a plain walk),
// and otherwise the count moveCount reads off the next word.
func drawMoves(moves []uint64, t int, hi, lo uint64) (uint64, uint64, int) {
	if moves == nil {
		return hi, lo, t
	}
	hi, lo, x := pcgNext(hi, lo)
	return hi, lo, moveCount(moves, x)
}

// moveCount returns the smallest b with x ≤ thr[b]: one draw of the move
// count whose thresholds moveThresholds built.
func moveCount(thr []uint64, x uint64) int {
	lo, hi := 0, len(thr)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x <= thr[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// directBlock is the per-substream vertex block of DirectWalks and
// DirectVisited: small enough to load-balance across workers, large
// enough that the per-block allocations vanish in the noise.
const directBlock = 256

// pcgIndex maps one PCG word to a uniform index in [0, n) by Lemire's
// multiply-shift reduction, without the rejection pass of rand.IntN: the
// bias (< n·2⁻⁶⁴) is far below the walks' n^{-Θ(1)} accuracy budget.
// DirectVisited and the Layered engine take one word per move this way,
// as DirectWalks' irregular path does inline; DirectWalks' regular path
// takes several exact indices from each word instead (batch).
func pcgIndex(r *rand.PCG, n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// The 128-bit LCG of math/rand/v2's PCG: state ← state·mul + inc mod 2¹²⁸,
// with the DXSM output multiplier.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
	pcgDXSM  = 0xda942042e4dd58b5
)

// pcgNext is rand.PCG.Uint64 on a state held in two words: it advances
// (hi, lo) by one LCG step and returns the new state with its DXSM output
// word. It is small enough to inline, so walkLanes keeps each lane in
// registers.
func pcgNext(hi, lo uint64) (nhi, nlo, x uint64) {
	nhi, nlo = mul128(hi, lo, pcgMulHi, pcgMulLo)
	var c uint64
	nlo, c = bits.Add64(nlo, pcgIncLo, 0)
	nhi, _ = bits.Add64(nhi, pcgIncHi, c)
	x = nhi ^ nhi>>32
	x *= pcgDXSM
	x ^= x >> 48
	x *= nlo | 1
	return nhi, nlo, x
}

// lcg is the affine map s ↦ mul·s + inc mod 2¹²⁸ on PCG states.
type lcg struct{ mulHi, mulLo, incHi, incLo uint64 }

// pcgJump returns the PCG's t-step map: the state t draws ahead of s is
// pcgJump(t).apply(s), composed from O(log t) squarings of the one-step
// map.
func pcgJump(t uint64) lcg {
	acc := lcg{mulLo: 1}
	step := lcg{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}
	for ; t > 0; t >>= 1 {
		if t&1 == 1 {
			acc = step.after(acc)
		}
		step = step.after(step)
	}
	return acc
}

// after returns the map f∘g.
func (f lcg) after(g lcg) lcg {
	mulHi, mulLo := mul128(f.mulHi, f.mulLo, g.mulHi, g.mulLo)
	incHi, incLo := f.apply(g.incHi, g.incLo)
	return lcg{mulHi, mulLo, incHi, incLo}
}

// apply returns f(s) for the state s = (hi, lo).
func (f lcg) apply(hi, lo uint64) (uint64, uint64) {
	hi, lo = mul128(f.mulHi, f.mulLo, hi, lo)
	var c uint64
	lo, c = bits.Add64(lo, f.incLo, 0)
	hi, _ = bits.Add64(hi, f.incHi, c)
	return hi, lo
}

// mul128 returns a·b mod 2¹²⁸.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	return hi + aHi*bLo + aLo*bHi, lo
}

// DirectVisited simulates one length-t walk per vertex and returns, for
// each vertex, the distinct vertices visited in first-visit order
// (including the start) together with the endpoint. This is the walk shape
// Section 8's SublinearConn consumes. Round accounting as in DirectWalks.
func DirectVisited(sim *mpc.Sim, g *graph.Graph, t int, rng *rand.Rand) (visited [][]graph.Vertex, target []graph.Vertex, err error) {
	n := g.N()
	if t < 0 {
		return nil, nil, fmt.Errorf("randwalk: negative walk length %d", t)
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			return nil, nil, fmt.Errorf("randwalk: vertex %d is isolated", v)
		}
	}
	visited = make([][]graph.Vertex, n)
	target = make([]graph.Vertex, n)
	// Per-block substreams as in DirectWalks; each block keeps its own
	// visit set.
	s1, s2 := rng.Uint64(), rng.Uint64()
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
		seen := make(map[graph.Vertex]bool, t+1)
		for v := lo; v < hi; v++ {
			clear(seen)
			cur := graph.Vertex(v)
			seen[cur] = true
			vis := []graph.Vertex{cur}
			for step := 0; step < t; step++ {
				if deg > 0 {
					cur = adj[int64(cur)*int64(deg)+int64(pcgIndex(r, deg))]
				} else {
					ns := g.Neighbors(cur, nil)
					cur = ns[pcgIndex(r, len(ns))]
				}
				if !seen[cur] {
					seen[cur] = true
					vis = append(vis, cur)
				}
			}
			visited[v] = vis
			target[v] = cur
		}
	})
	chargeTheorem3(sim, n, t)
	return visited, target, nil
}

// chargeTheorem3 charges the Theorem 3 round cost for walks of length t on
// an n-vertex graph: one sampling round plus 2·⌈log₂ t⌉ parallel searches
// over the layered graph of ≈ n·2t·(t+1) records.
func chargeTheorem3(sim *mpc.Sim, n, t int) {
	sim.Charge(1, "randwalk:sample")
	if t <= 1 {
		return
	}
	layered := n * 2 * t * (t + 1)
	phases := ceilLog2(t)
	for p := 0; p < 2*phases; p++ {
		sim.ChargeSearch(layered)
	}
}
