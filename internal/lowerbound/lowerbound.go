// Package lowerbound implements the paper's unconditional lower bound for
// connectivity on sparse expanders (Section 9, Theorem 5): any MPC
// algorithm with memory s per machine needs Ω(log_s n) rounds, proved via
// an Ω(n/log n) decision-tree (query) lower bound for the promise problem
// ExpanderConn (Lemma 9.3).
//
// The construction: a packing B = B_1..B_k of k = Ω(n) constant-degree
// expanders on a shared vertex set in which every potential edge appears
// in at most O(log n) of the B_i (Claim 9.4), plus two fixed expanders
// G_S, G_T on disjoint halves. The hidden instance is either G_S ∪ G_T
// (disconnected) or G_S ∪ G_T ∪ B_i (connected). The adversary answers
// every query "edge absent" and discards the ≤ O(log n) packing graphs
// containing the queried edge; while any B_i survives, both answers remain
// consistent, so Ω(k/log n) queries are forced.
package lowerbound

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/expander"
	"repro/internal/graph"
)

// Packing is the Claim 9.4 collection.
type Packing struct {
	// N is the number of vertices each B_i spans.
	N int
	// Degree is the (constant) degree of each B_i.
	Degree int
	// Graphs is the collection B.
	Graphs []*graph.Graph
	// MaxMultiplicity is the largest number of B_i sharing one edge.
	MaxMultiplicity int
	// byEdge maps a normalized edge to the indices of graphs containing it.
	byEdge map[graph.Edge][]int
}

// NewPacking samples k = n/(c·d) graphs from the permutation distribution
// G_{n,d} (Section 4) and verifies the Claim 9.4 multiplicity bound,
// resampling the whole collection if some edge is over-shared (whp one
// attempt suffices). d must be even; k ≥ 1.
func NewPacking(n, d, k, maxMult int, rng *rand.Rand) (*Packing, error) {
	if k < 1 {
		return nil, fmt.Errorf("lowerbound: need k >= 1, got %d", k)
	}
	if maxMult < 1 {
		return nil, fmt.Errorf("lowerbound: need maxMult >= 1")
	}
	for attempt := 0; attempt < 8; attempt++ {
		p := &Packing{N: n, Degree: d, byEdge: make(map[graph.Edge][]int)}
		ok := true
		for i := 0; i < k && ok; i++ {
			b, err := expander.SamplePermutationRegular(n, d, rng)
			if err != nil {
				return nil, err
			}
			p.Graphs = append(p.Graphs, b)
			seen := map[graph.Edge]bool{}
			b.ForEachEdge(func(e graph.Edge) {
				e = e.Normalize()
				if seen[e] {
					return // parallel edges inside one B_i count once
				}
				seen[e] = true
				p.byEdge[e] = append(p.byEdge[e], i)
				if len(p.byEdge[e]) > p.MaxMultiplicity {
					p.MaxMultiplicity = len(p.byEdge[e])
				}
			})
			if p.MaxMultiplicity > maxMult {
				ok = false
			}
		}
		if ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("lowerbound: multiplicity bound %d not met in 8 attempts", maxMult)
}

// DefaultPacking uses the paper's shape: d = 8 (constant), k = n/(2d),
// multiplicity budget 4·⌈log₂ n⌉ (Claim 9.4's O(log n)).
func DefaultPacking(n int, rng *rand.Rand) (*Packing, error) {
	d := 8
	k := n / (2 * d)
	if k < 1 {
		k = 1
	}
	l := 1
	for v := 1; v < n; v *= 2 {
		l++
	}
	return NewPacking(n, d, k, 4*l, rng)
}

// Adversary plays the Lemma 9.3 strategy: every queried edge is declared
// absent, eliminating the packing graphs that contain it. While at least
// one B_i is alive the instance's connectivity is undetermined.
type Adversary struct {
	packing    *Packing
	eliminated []bool
	alive      int
	queries    int
}

// NewAdversary starts a game over the given packing.
func NewAdversary(p *Packing) *Adversary {
	return &Adversary{packing: p, eliminated: make([]bool, len(p.Graphs)), alive: len(p.Graphs)}
}

// Query asks whether edge e is present; the adversary always answers false
// and discards every alive packing graph containing e.
func (a *Adversary) Query(e graph.Edge) bool {
	a.queries++
	for _, i := range a.packing.byEdge[e.Normalize()] {
		if !a.eliminated[i] {
			a.eliminated[i] = true
			a.alive--
		}
	}
	return false
}

// Alive returns the number of packing graphs still consistent with all
// answers. While Alive > 0 the algorithm cannot decide connectivity: the
// adversary may still complete the instance either way.
func (a *Adversary) Alive() int { return a.alive }

// Queries returns the number of queries made so far.
func (a *Adversary) Queries() int { return a.queries }

// Undetermined reports whether both "connected" and "disconnected" remain
// consistent with every answer given.
func (a *Adversary) Undetermined() bool { return a.alive > 0 }

// GreedyQueries plays the best strategy *for the algorithm*: repeatedly
// query the edge contained in the most alive packing graphs, the least
// edge in (U, V) order among equally good ones, so the count does not
// depend on map iteration order. It returns
// the number of queries needed to eliminate every graph — an upper bound
// on the query complexity that is within the multiplicity factor of the
// adversary bound k/maxMult (Lemma 9.3's Ω(n/log n)).
func GreedyQueries(p *Packing) int {
	adv := NewAdversary(p)
	type ec struct {
		e graph.Edge
		c int
	}
	for adv.Undetermined() {
		// Count alive multiplicity per edge; query the max.
		best := ec{c: -1}
		for e, idxs := range p.byEdge {
			c := 0
			for _, i := range idxs {
				if !adv.eliminated[i] {
					c++
				}
			}
			if c > best.c || c == best.c && edgeLess(e, best.e) {
				best = ec{e: e, c: c}
			}
		}
		if best.c <= 0 {
			break
		}
		adv.Query(best.e)
	}
	return adv.Queries()
}

// RandomQueries plays uniformly random edge queries from the packing's
// support and returns the queries needed to eliminate everything.
func RandomQueries(p *Packing, rng *rand.Rand) int {
	adv := NewAdversary(p)
	edges := make([]graph.Edge, 0, len(p.byEdge))
	for e := range p.byEdge {
		edges = append(edges, e)
	}
	// Deterministic order before shuffling (map order is random).
	sortEdges(edges)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if !adv.Undetermined() {
			break
		}
		adv.Query(e)
	}
	return adv.Queries()
}

// HardInstance materializes one concrete ExpanderConn input: two
// disjoint-half expanders G_S, G_T, plus B_i if connectedIdx >= 0 wired
// across the halves. It is used to sanity-check that the promise (sparse,
// well-connected components) really holds for the instances the lower
// bound talks about.
func HardInstance(p *Packing, sideDegree int, connectedIdx int, rng *rand.Rand) (*graph.Graph, error) {
	half := p.N / 2
	if half < 2 {
		return nil, fmt.Errorf("lowerbound: packing too small")
	}
	gs, err := expander.SamplePermutationRegular(half, sideDegree, rng)
	if err != nil {
		return nil, err
	}
	gt, err := expander.SamplePermutationRegular(p.N-half, sideDegree, rng)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilderHint(p.N, gs.M()+gt.M()+p.N*p.Degree/2)
	gs.ForEachEdge(func(e graph.Edge) { b.AddEdge(e.U, e.V) })
	gt.ForEachEdge(func(e graph.Edge) { b.AddEdge(e.U+graph.Vertex(half), e.V+graph.Vertex(half)) })
	if connectedIdx >= 0 {
		if connectedIdx >= len(p.Graphs) {
			return nil, fmt.Errorf("lowerbound: index %d out of range", connectedIdx)
		}
		p.Graphs[connectedIdx].ForEachEdge(func(e graph.Edge) { b.AddEdge(e.U, e.V) })
	}
	return b.Build(), nil
}

func sortEdges(edges []graph.Edge) {
	sort.Slice(edges, func(i, j int) bool { return edgeLess(edges[i], edges[j]) })
}

// edgeLess orders edges by (U, V).
func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}
