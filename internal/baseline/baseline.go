// Package baseline implements the connectivity algorithms the paper
// positions itself against, with the same round accounting as the rest of
// the repository:
//
//   - LabelPropagation: min-label flooding, Θ(D) rounds — the naive MPC/
//     Pregel baseline.
//   - HashToMin: Rastogi et al. [48], O(log n) rounds; the canonical
//     MapReduce connectivity algorithm referenced in Section 1.
//   - Boruvka: classic leader election with constant component growth per
//     round, Θ(log n) rounds — the [36,37] style the paper contrasts with
//     its quadratic-growth election.
//   - GraphExponentiation: the diameter-parametrized approach of Andoni et
//     al. [6] (Section 1.3): square the graph each round, O(log D) rounds,
//     at a total-memory cost that the paper's footnote 3 criticizes — the
//     edge blow-up is reported so experiment E13 can exhibit the
//     incomparability both ways.
//
// All four return exact components; they differ in the rounds (and, for
// exponentiation, memory) they charge.
package baseline

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// Result is a baseline outcome: exact labels plus cost accounting.
type Result struct {
	Labels     []graph.Vertex
	Components int
	// Rounds is the MPC rounds charged by the algorithm.
	Rounds int
	// PeakEdges is the largest materialized edge set (exponentiation's
	// memory cost; equals m for the others).
	PeakEdges int
}

func finish(labels []graph.Vertex, rounds, peak int) *Result {
	dense, count := graph.Densify(labels)
	return &Result{Labels: dense, Components: count, Rounds: rounds, PeakEdges: peak}
}

// LabelPropagation floods minimum labels: each round every vertex adopts
// the minimum label in its closed neighbourhood; terminates when stable.
// Rounds = eccentricity of the min-label vertex per component ≈ diameter.
// Each flood step is machine-local work and fans out on the sim's
// executor (vertex v writes only next[v], so results are deterministic).
func LabelPropagation(sim *mpc.Sim, g *graph.Graph) *Result {
	n := g.N()
	ex := sim.Executor()
	labels := make([]graph.Vertex, n)
	for v := range labels {
		labels[v] = graph.Vertex(v)
	}
	next := make([]graph.Vertex, n)
	rounds := 0
	for {
		var changed atomic.Bool
		mpc.RunChunks(ex, n, func(lo, hi int) {
			dirty := false
			for v := lo; v < hi; v++ {
				best := labels[v]
				for _, u := range g.Neighbors(graph.Vertex(v), nil) {
					if labels[u] < best {
						best = labels[u]
					}
				}
				next[v] = best
				if best != labels[v] {
					dirty = true
				}
			}
			if dirty {
				changed.Store(true)
			}
		})
		labels, next = next, labels
		rounds++
		sim.Charge(1, "labelprop:step")
		if !changed.Load() {
			break
		}
	}
	return finish(labels, sim.Rounds(), g.M())
}

// HashToMin is the O(log n)-round algorithm of Rastogi et al.: every
// vertex maintains a cluster C(v); each round v sends C(v) to the minimum
// member m of C(v) and {m} to every other member; clusters are then
// rebuilt from received sets. Converges when every cluster is fixed; the
// final cluster of each component's minimum vertex is the whole component.
func HashToMin(sim *mpc.Sim, g *graph.Graph) *Result {
	n := g.N()
	clusters := make([]map[graph.Vertex]bool, n)
	for v := 0; v < n; v++ {
		c := map[graph.Vertex]bool{graph.Vertex(v): true}
		for _, u := range g.Neighbors(graph.Vertex(v), nil) {
			c[u] = true
		}
		clusters[v] = c
	}
	for {
		inbox := make([]map[graph.Vertex]bool, n)
		add := func(dst graph.Vertex, vs ...graph.Vertex) {
			if inbox[dst] == nil {
				inbox[dst] = make(map[graph.Vertex]bool)
			}
			for _, x := range vs {
				inbox[dst][x] = true
			}
		}
		for v := 0; v < n; v++ {
			m := minOf(clusters[v])
			for u := range clusters[v] {
				if u == m {
					continue
				}
				add(m, u) // hash-to-min: big payload to the minimum
				add(u, m) // minimum broadcast to the rest
			}
			add(m, m)
			add(graph.Vertex(v), m)
		}
		changed := false
		for v := 0; v < n; v++ {
			nc := inbox[v]
			if nc == nil {
				nc = map[graph.Vertex]bool{graph.Vertex(v): true}
			}
			if !sameSet(nc, clusters[v]) {
				changed = true
			}
			clusters[v] = nc
		}
		sim.Charge(1, "hashtomin:step")
		if !changed {
			break
		}
	}
	// Label = minimum of the cluster (stable state: min(C(v)) is v's
	// component minimum).
	labels := make([]graph.Vertex, n)
	for v := 0; v < n; v++ {
		labels[v] = minOf(clusters[v])
	}
	return finish(labels, sim.Rounds(), g.M())
}

// Boruvka is the constant-growth leader election: every round each current
// component picks its minimum outgoing edge and merges along it. O(log n)
// rounds, each costing one contraction sort plus a merge round.
func Boruvka(sim *mpc.Sim, g *graph.Graph) *Result {
	n := g.N()
	uf := graph.NewUnionFind(n)
	for {
		// Minimum outgoing edge per component.
		best := make(map[graph.Vertex]graph.Edge)
		g.ForEachEdge(func(e graph.Edge) {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				return
			}
			for _, r := range []graph.Vertex{ru, rv} {
				if cur, ok := best[r]; !ok || less(e, cur) {
					best[r] = e
				}
			}
		})
		sim.ChargeSort(g.M())
		if len(best) == 0 {
			break
		}
		for _, e := range best {
			uf.Union(e.U, e.V)
		}
		sim.Charge(1, "boruvka:merge")
	}
	return finish(uf.Labels(), sim.Rounds(), g.M())
}

// GraphExponentiation squares the graph each round (connect every vertex
// to its 2-hop neighbourhood) and floods min labels over the squared
// graph: O(log D) rounds. The edge sets it materializes grow towards the
// transitive closure; PeakEdges reports the maximum, and maxEdges bounds
// it (0 = unbounded). If the bound is exceeded the algorithm returns an
// error — the total-memory failure mode of footnote 3.
func GraphExponentiation(sim *mpc.Sim, g *graph.Graph, maxEdges int) (*Result, error) {
	n := g.N()
	adj := make([]map[graph.Vertex]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[graph.Vertex]bool)
		for _, u := range g.Neighbors(graph.Vertex(v), nil) {
			if int(u) != v {
				adj[v][u] = true
			}
		}
	}
	labels := make([]graph.Vertex, n)
	for v := range labels {
		labels[v] = graph.Vertex(v)
	}
	nextLabels := make([]graph.Vertex, n)
	peak := g.M()
	ex := sim.Executor()
	for {
		// One synchronous min-label step over the current shortcut graph
		// (in-place sweeping would smuggle a whole flood into one round).
		// Vertex v writes only nextLabels[v]: chunk-parallel.
		var stepChanged atomic.Bool
		mpc.RunChunks(ex, n, func(lo, hi int) {
			dirty := false
			for v := lo; v < hi; v++ {
				best := labels[v]
				for u := range adj[v] {
					if labels[u] < best {
						best = labels[u]
					}
				}
				nextLabels[v] = best
				if best != labels[v] {
					dirty = true
				}
			}
			if dirty {
				stepChanged.Store(true)
			}
		})
		labels, nextLabels = nextLabels, labels
		sim.Charge(1, "exponentiate:flood")
		if !stepChanged.Load() {
			break
		}
		// Square: N(v) ← N(v) ∪ N(N(v)). Vertex v builds only next[v] from
		// read-only adj: chunk-parallel with per-chunk edge tallies.
		next := make([]map[graph.Vertex]bool, n)
		var edges64 atomic.Int64
		mpc.RunChunks(ex, n, func(lo, hi int) {
			local := 0
			for v := lo; v < hi; v++ {
				nv := make(map[graph.Vertex]bool, 2*len(adj[v]))
				for u := range adj[v] {
					nv[u] = true
					for w := range adj[u] {
						if int(w) != v {
							nv[w] = true
						}
					}
				}
				next[v] = nv
				local += len(nv)
			}
			edges64.Add(int64(local))
		})
		edges := int(edges64.Load()) / 2
		if edges > peak {
			peak = edges
		}
		if maxEdges > 0 && edges > maxEdges {
			return nil, fmt.Errorf("baseline: exponentiation exceeded edge budget: %d > %d", edges, maxEdges)
		}
		adj = next
		sim.Charge(1, "exponentiate:square")
	}
	res := finish(labels, sim.Rounds(), peak)
	return res, nil
}

// RandomizedBoruvka breaks ties with coin flips instead of minima (the
// classical random mate variant); provided for ablation benchmarks.
func RandomizedBoruvka(sim *mpc.Sim, g *graph.Graph, rng *rand.Rand) *Result {
	n := g.N()
	uf := graph.NewUnionFind(n)
	for {
		heads := make(map[graph.Vertex]bool)
		seen := make(map[graph.Vertex]bool)
		g.ForEachEdge(func(e graph.Edge) {
			for _, x := range []graph.Vertex{e.U, e.V} {
				r := uf.Find(x)
				if !seen[r] {
					seen[r] = true
					heads[r] = rng.IntN(2) == 0
				}
			}
		})
		merged := false
		g.ForEachEdge(func(e graph.Edge) {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				return
			}
			// Tails hook onto heads.
			if heads[ru] != heads[rv] {
				if uf.Union(ru, rv) {
					merged = true
				}
			}
		})
		sim.ChargeSort(g.M())
		sim.Charge(1, "randboruvka:merge")
		if !merged {
			// Either done, or an unlucky coin round: check for remaining
			// cross edges.
			remaining := false
			g.ForEachEdge(func(e graph.Edge) {
				if uf.Find(e.U) != uf.Find(e.V) {
					remaining = true
				}
			})
			if !remaining {
				break
			}
		}
	}
	return finish(uf.Labels(), sim.Rounds(), g.M())
}

func less(a, b graph.Edge) bool {
	a, b = a.Normalize(), b.Normalize()
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

func minOf(set map[graph.Vertex]bool) graph.Vertex {
	first := true
	var min graph.Vertex
	for v := range set {
		if first || v < min {
			min = v
			first = false
		}
	}
	return min
}

func sameSet(a, b map[graph.Vertex]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
