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
	// output depending on the schedule.
	s1, s2 := rng.Uint64(), rng.Uint64()
	targets := make([][]graph.Vertex, n)
	// Regular-graph fast path: neighbors of v are adj[v*d:(v+1)*d], so the
	// step needs one memory access instead of three (the lazy 2Δ-regular
	// graphs of Step 2 — the hottest walk workload — always take it).
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

// directBlock is the per-substream vertex block of DirectWalks and
// DirectVisited: small enough to load-balance across workers, large
// enough that the two rand allocations per block vanish in the noise.
const directBlock = 256

// pcgIndex maps one PCG word to a uniform index in [0, n) by Lemire's
// multiply-shift reduction, without the rejection pass of rand.IntN: the
// bias (< n·2⁻⁶⁴) is far below the walks' n^{-Θ(1)} accuracy budget, and
// the direct PCG call plus single multiply removes the dominant cost of
// the simulator's hottest loop (profiled at ~40% of pipeline time).
func pcgIndex(r *rand.PCG, n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
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
