// Package sublinear implements the paper's Theorem 2 (Section 8): connected
// components of an *arbitrary* graph — no spectral-gap assumption — in
// O(log log n + log(n/s)) MPC rounds on machines of memory s = n^Ω(1),
// i.e. O(log log n) rounds whenever s is mildly sublinear (n/polylog n).
//
// SublinearConn(G):
//
//  1. d := n·polylog(n)/s; t := Θ(d³·log n); run SimpleRandomWalk(G, t).
//     By the Barnes–Feige bound a walk of length O(d³ log n) visits d
//     distinct vertices (or its whole component) whp.
//  2. G̃ := G plus edges from every v to all distinct vertices its walk
//     visited, so min-degree ≥ d (or a whole component is known).
//  3. LeaderElection(G̃) with leader probability Θ(log n / d): every
//     vertex has a leader neighbour whp; contract to H with
//     |V(H)| = O(n·log n/d) = O(s/polylog n) vertices.
//  4. Deduplicate and run the AGM sketch (Proposition 8.1): every vertex
//     of H sends an O(log³ n)-bit sketch to one coordinator machine,
//     which recovers H's components locally.
//
// The cubic walk length is the worst-case bound; Options.WalkLengthFactor
// scales it, and correctness never depends on it — an exact verification
// finish merges anything the randomized steps left split, charging honest
// extra rounds (Stats.FinishMerges reports the slack).
package sublinear

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/leader"
	"repro/internal/mpc"
	"repro/internal/randwalk"
	"repro/internal/sketch"
)

// Options configures SublinearConn.
type Options struct {
	// MachineMemory is s; 0 derives n/⌈log₂ n⌉² (mildly sublinear).
	MachineMemory int
	// WalkLengthFactor scales the walk length t = factor·d·⌈log₂ n⌉
	// (default 4). The paper's worst-case t = Θ(d³ log n) is available by
	// setting CubicWalks.
	WalkLengthFactor int
	// CubicWalks uses the paper's t = d³·⌈log₂ n⌉ (Barnes–Feige safe).
	CubicWalks bool
	// MaxWalkLength caps t (default 1 << 14).
	MaxWalkLength int
	// SketchCopies is the per-round sampler redundancy (default 3).
	SketchCopies int
	// Workers selects the simulator's execution engine (mpc.Config.Workers
	// semantics): 1 sequential, k > 1 a bounded pool, negative GOMAXPROCS.
	// Results are bit-identical for a fixed Seed regardless of the setting.
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

func (o Options) withDefaults(n int) Options {
	if o.MachineMemory <= 0 {
		l := ceilLog2(n)
		if l < 2 {
			l = 2
		}
		o.MachineMemory = n/(l*l) + 4
	}
	if o.WalkLengthFactor <= 0 {
		o.WalkLengthFactor = 4
	}
	if o.MaxWalkLength <= 0 {
		o.MaxWalkLength = 1 << 14
	}
	if o.SketchCopies <= 0 {
		o.SketchCopies = 3
	}
	return o
}

// Stats describes a SublinearConn execution.
type Stats struct {
	// Rounds is the MPC rounds charged.
	Rounds int
	// TargetDegree is d = n·polylog(n)/s.
	TargetDegree int
	// WalkLength is t.
	WalkLength int
	// ContractionVertices is |V(H)| after leader election.
	ContractionVertices int
	// SketchBitsPerVertex is the Proposition 8.1 message size.
	SketchBitsPerVertex int
	// BoruvkaRounds is the coordinator's sketched-Borůvka round count
	// (local computation — not MPC rounds).
	BoruvkaRounds int
	// FinishMerges counts corrections by the exact verification finish.
	FinishMerges int
	// Orphans is the number of vertices without a leader neighbour.
	Orphans int
}

// Result is the output of Components.
type Result struct {
	Labels     []graph.Vertex
	Components int
	Stats      Stats
}

// Components runs SublinearConn on g. The result is always exact.
func Components(g *graph.Graph, opts Options) (*Result, error) {
	n := g.N()
	opts = opts.withDefaults(n)
	sim := mpc.New(mpc.Config{MachineMemory: opts.MachineMemory, Machines: 2*n/opts.MachineMemory + 2, Workers: opts.Workers})
	rng := rand.New(rand.NewPCG(opts.Seed, 0x5b7e151628aed2a6))
	var stats Stats
	if n == 0 {
		return &Result{Labels: []graph.Vertex{}, Stats: stats}, nil
	}

	// Step 1: walk length from the target degree d = n·log²n/s (using
	// log² as the paper's polylog; the exact power only shifts constants).
	l := ceilLog2(n)
	if l < 1 {
		l = 1
	}
	d := n * l * l / opts.MachineMemory
	if d < 2 {
		d = 2
	}
	stats.TargetDegree = d
	var t int
	if opts.CubicWalks {
		t = d * d * d * l
	} else {
		t = opts.WalkLengthFactor * d * l
	}
	if t > opts.MaxWalkLength {
		t = opts.MaxWalkLength
	}
	stats.WalkLength = t

	// Isolated vertices are their own components; walk the rest.
	active := make([]graph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) > 0 {
			active = append(active, graph.Vertex(v))
		}
	}
	labels := make([]graph.Vertex, n)
	for v := range labels {
		labels[v] = graph.Vertex(v)
	}
	if len(active) > 0 {
		sub, orig := graph.InducedSubgraph(g, active)
		subLabels, err := componentsOnActive(sim, sub, d, t, opts, rng, &stats)
		if err != nil {
			return nil, err
		}
		for i, sl := range subLabels {
			labels[orig[i]] = orig[sl]
		}
	}

	// Exact verification finish (merges are free corrections; one round to
	// verify, diameter-bounded BFS if corrections are needed).
	merges, _ := verifyFinish(sim, g, labels)
	stats.FinishMerges = merges
	stats.Rounds = sim.Rounds()
	dense, count := graph.Densify(labels)
	return &Result{Labels: dense, Components: count, Stats: stats}, nil
}

// componentsOnActive runs steps 1–4 on a graph with no isolated vertices,
// returning member-representative labels (a sub-vertex id per vertex).
func componentsOnActive(sim *mpc.Sim, g *graph.Graph, d, t int, opts Options, rng *rand.Rand, stats *Stats) ([]graph.Vertex, error) {
	n := g.N()
	// Step 1–2: walks and the degree-boosted graph G̃.
	visited, _, err := randwalk.DirectVisited(sim, g, t, rng)
	if err != nil {
		return nil, fmt.Errorf("sublinear: walks: %w", err)
	}
	b := graph.NewBuilderHint(n, g.M()+n*d)
	g.ForEachEdge(func(e graph.Edge) { b.AddEdge(e.U, e.V) })
	for v := 0; v < n; v++ {
		for _, u := range visited[v] {
			if u != graph.Vertex(v) {
				b.AddEdge(graph.Vertex(v), u)
			}
		}
	}
	boosted := b.Build()
	sim.Charge(1, "sublinear:boost")

	// Step 3: leader election with p = Θ(log n/d) ⇒ growth target
	// d/log n; orphans become singletons and are caught by the finish.
	l := ceilLog2(n)
	if l < 1 {
		l = 1
	}
	growth := float64(d) / float64(l)
	if growth < 1 {
		growth = 1
	}
	el, err := leader.Elect(boosted, growth, rng)
	if err != nil {
		return nil, fmt.Errorf("sublinear: election: %w", err)
	}
	stats.Orphans = el.Orphans
	sim.Charge(2, "sublinear:elect")
	c, err := graph.Contract(boosted, el.PartOf, el.Parts)
	if err != nil {
		return nil, fmt.Errorf("sublinear: contraction: %w", err)
	}
	sim.ChargeSort(boosted.M())
	stats.ContractionVertices = c.H.N()

	// Step 4: Proposition 8.1 — every vertex of H sketches its edges and a
	// coordinator recovers the components. Simple (deduplicated) H is what
	// the paper feeds the sketch.
	h := graph.Simplify(c.H)
	cs, err := sketch.NewConnectivitySketch(h.N(), 0, opts.SketchCopies, rng.Uint64())
	if err != nil {
		return nil, fmt.Errorf("sublinear: sketch: %w", err)
	}
	if err := cs.AddGraph(h); err != nil {
		return nil, fmt.Errorf("sublinear: sketch fold: %w", err)
	}
	stats.SketchBitsPerVertex = cs.BitsPerVertex()
	hLabels, _, boruvka := cs.Components()
	stats.BoruvkaRounds = boruvka
	// One round for every player to ship its sketch, one for the
	// coordinator broadcast of results (shared randomness is assumed as in
	// Proposition 8.1).
	sim.Charge(2, "sublinear:sketch-exchange")

	// Compose: vertex → part → H component; emit member representatives.
	rep := make(map[graph.Vertex]graph.Vertex)
	out := make([]graph.Vertex, n)
	for v := 0; v < n; v++ {
		comp := hLabels[el.PartOf[v]]
		r, ok := rep[comp]
		if !ok {
			r = graph.Vertex(v)
			rep[comp] = r
		}
		out[v] = r
	}
	return out, nil
}

// verifyFinish merges parts still joined by an edge of g, as in the core
// pipeline's correctness finish.
func verifyFinish(sim *mpc.Sim, g *graph.Graph, labels []graph.Vertex) (merges, rounds int) {
	before := sim.Rounds()
	sim.Charge(1, "sublinear:verify")
	uf := graph.NewUnionFind(g.N())
	for v := 0; v < g.N(); v++ {
		uf.Union(graph.Vertex(v), labels[v])
	}
	crossing := 0
	g.ForEachEdge(func(e graph.Edge) {
		if uf.Find(e.U) != uf.Find(e.V) {
			crossing++
			uf.Union(e.U, e.V)
		}
	})
	if crossing > 0 {
		dense, parts := graph.Densify(labels)
		if c, err := graph.Contract(g, dense, parts); err == nil {
			sim.ChargeSort(g.M())
			depth := 1
			if c.H.N() > 1 {
				if lb := graph.DiameterLowerBound(c.H, 0); lb > depth {
					depth = lb
				}
			}
			sim.Charge(depth, "sublinear:finish-bfs")
		}
	}
	for v := 0; v < g.N(); v++ {
		labels[v] = uf.Find(graph.Vertex(v))
	}
	return crossing, sim.Rounds() - before
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
