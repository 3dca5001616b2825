package randwalk

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// DirectWalks samples k mutually independent length-t walks from every
// vertex by direct simulation. The joint distribution of the returned
// targets is exactly the product ⊗_{v,b} D_RW(v, t) — the ideal object
// that Theorem 3's layered-graph data structure approximates (certifying
// independence for a 1/2 fraction per instance and repeating Θ(log n)
// times). The layered-graph engine costs Θ(n·t²) memory, which is the
// paper's own machine budget (O(t²·n^{1−δ}) machines in Theorem 3) but is
// hostile to a single-host simulation at realistic T; direct simulation
// costs O(n·k·t) time and O(n·k) memory.
//
// Round accounting still follows Theorem 3 — 1 sampling round plus
// 2·⌈log₂ t⌉ pointer-doubling/marking phases, each a parallel search over
// the layered graph of n·2t·(t+1) records — because that is what the
// algorithm would cost on a real cluster. The substitution is direct
// sampling for the layered-graph structure, with Theorem 3's round
// accounting kept; ablation A3 (A3WalkEngines in internal/bench) measures
// both engines side by side.
//
// On a regular graph the walks of a block run four at a time on
// jump-ahead lanes of the block's PCG stream (walkLanes), each lane
// reading exactly the words the walk would read on its own, so the
// targets do not depend on the lane count.
func DirectWalks(sim *mpc.Sim, g *graph.Graph, t, k int, rng *rand.Rand) ([][]graph.Vertex, error) {
	n := g.N()
	if t < 0 {
		return nil, fmt.Errorf("randwalk: negative walk length %d", t)
	}
	if k < 0 {
		return nil, fmt.Errorf("randwalk: negative walk count %d", k)
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			return nil, fmt.Errorf("randwalk: vertex %d is isolated", v)
		}
	}
	// Fixed-size vertex blocks each walk on their own StreamRNG substream
	// keyed by block index — block boundaries do not depend on the worker
	// count, so the blocks parallelize across the executor without the
	// output depending on the schedule. Within a block, walk b of the i-th
	// vertex consumes draws [(i·k+b)·t, (i·k+b+1)·t) of the stream.
	s1, s2 := rng.Uint64(), rng.Uint64()
	targets := make([][]graph.Vertex, n)
	// Regular-graph fast path: neighbors of v are adj[v*d:(v+1)*d], so the
	// step needs one memory access instead of three (the self-looped
	// regular graphs of Step 2 — the hottest walk workload — always take
	// it).
	deg := 0
	if n > 0 && g.MinDegree() == g.MaxDegree() {
		deg = g.MaxDegree()
	}
	_, adj := g.CSR()
	jump := pcgJump(t)
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
		if deg > 0 {
			sHi, sLo := mpc.StreamSeeds(s1, s2, uint64(bk))
			walkLanes(rows, adj, deg, lo, k, t, jump, sHi, sLo)
			return
		}
		r := mpc.StreamPCG(s1, s2, uint64(bk))
		for w := range rows {
			cur := graph.Vertex(lo + w/k)
			for step := 0; step < t; step++ {
				ns := g.Neighbors(cur, nil)
				cur = ns[pcgIndex(r, len(ns))]
			}
			rows[w] = cur
		}
	})
	chargeTheorem3(sim, n, t)
	return targets, nil
}

// walkLanes runs the walks of one regular-graph block: walk w starts at
// vertex first + w/k, takes t steps of the deg-regular adjacency adj, and
// writes its endpoint to out[w]. (sHi, sLo) is the block stream's state
// before its first draw, and walk w consumes draws [w·t, (w+1)·t) — the
// order the walks would consume them one after another.
//
// One walk leaves two serial dependency chains per step: the 128-bit LCG
// state and the adj load that needs the previous vertex. Four walks run
// side by side instead, each on its own lane of the stream: lane j starts
// at the state t·j draws ahead (jump, the LCG's t-step affine map), so the
// four chains overlap in the pipeline and every walk still reads exactly
// the words it would read alone. After t steps lane 3 stands where the
// next group of four begins.
func walkLanes(out, adj []graph.Vertex, deg, first, k, t int, jump lcg, sHi, sLo uint64) {
	d := uint64(deg)
	w := 0
	for ; w+4 <= len(out); w += 4 {
		h0, l0 := sHi, sLo
		h1, l1 := jump.apply(h0, l0)
		h2, l2 := jump.apply(h1, l1)
		h3, l3 := jump.apply(h2, l2)
		c0 := int64(first + w/k)
		c1 := int64(first + (w+1)/k)
		c2 := int64(first + (w+2)/k)
		c3 := int64(first + (w+3)/k)
		for step := 0; step < t; step++ {
			var x0, x1, x2, x3 uint64
			h0, l0, x0 = pcgNext(h0, l0)
			h1, l1, x1 = pcgNext(h1, l1)
			h2, l2, x2 = pcgNext(h2, l2)
			h3, l3, x3 = pcgNext(h3, l3)
			i0, _ := bits.Mul64(x0, d)
			i1, _ := bits.Mul64(x1, d)
			i2, _ := bits.Mul64(x2, d)
			i3, _ := bits.Mul64(x3, d)
			c0 = int64(adj[c0*int64(deg)+int64(i0)])
			c1 = int64(adj[c1*int64(deg)+int64(i1)])
			c2 = int64(adj[c2*int64(deg)+int64(i2)])
			c3 = int64(adj[c3*int64(deg)+int64(i3)])
		}
		out[w], out[w+1], out[w+2], out[w+3] = graph.Vertex(c0), graph.Vertex(c1), graph.Vertex(c2), graph.Vertex(c3)
		sHi, sLo = h3, l3
	}
	for ; w < len(out); w++ {
		c := int64(first + w/k)
		for step := 0; step < t; step++ {
			var x uint64
			sHi, sLo, x = pcgNext(sHi, sLo)
			i, _ := bits.Mul64(x, d)
			c = int64(adj[c*int64(deg)+int64(i)])
		}
		out[w] = graph.Vertex(c)
	}
}

// directBlock is the per-substream vertex block of DirectWalks and
// DirectVisited: small enough to load-balance across workers, large
// enough that the per-block allocations vanish in the noise.
const directBlock = 256

// pcgIndex maps one PCG word to a uniform index in [0, n) by Lemire's
// multiply-shift reduction, without the rejection pass of rand.IntN: the
// bias (< n·2⁻⁶⁴) is far below the walks' n^{-Θ(1)} accuracy budget.
// walkLanes applies the same reduction inline to its lane words, so both
// paths map a word to the same index.
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
func pcgJump(t int) lcg {
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
