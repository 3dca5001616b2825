// Package graph provides the immutable undirected multigraph substrate used
// by every algorithm in this repository: a compressed sparse row (CSR)
// representation, a mutable Builder, union-find, traversals, contraction
// (Definition 2 of the paper), and spanning forests.
//
// Vertices are dense integers in [0, N). Graphs are undirected; parallel
// edges and self-loops are representable because several constructions in
// the paper (lazy walks via self-loops, random graphs G(n,d) sampled with
// replacement, permutation expanders) produce them.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Vertex is a vertex identifier. Vertices of a Graph on n vertices are
// exactly 0..n-1. The 32-bit width keeps large layered graphs (Section 5 of
// the paper) within memory budget.
type Vertex = int32

// Edge is an undirected edge. Constructors normalize U <= V unless the edge
// is produced by an iterator that preserves insertion order.
type Edge struct {
	U, V Vertex
}

// Normalize returns the edge with endpoints ordered U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// IsLoop reports whether the edge is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Graph is an immutable undirected multigraph in CSR form. Each undirected
// edge {u,v} with u != v appears once in the adjacency of u and once in the
// adjacency of v; a self-loop at v appears twice in the adjacency of v, so
// that degree always equals the number of half-edges (the convention used
// by random-walk transition probabilities in Section 2.2).
type Graph struct {
	offsets []int64
	adj     []Vertex
	m       int64 // number of undirected edges (loops count once)
	// minDeg/maxDeg are computed once at Build time: degree extremes are
	// queried inside round loops (leader phases, regularity checks), and
	// the CSR is immutable, so the O(n) scan would be pure waste.
	minDeg, maxDeg int
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges (self-loops count once).
func (g *Graph) M() int { return int(g.m) }

// Degree returns the degree of v (self-loops contribute 2).
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v as a shared slice. Callers must
// not modify it. The i-th entry is the "i-th neighbor of v" in the sense
// used by the replacement product (Section 4): the ordering is fixed at
// Build time and stable thereafter.
//
// The signature is the View contract (see view.go): buf is the scratch
// an out-of-core implementation decodes into. The in-RAM CSR has nothing
// to decode, so it ignores buf — pass nil — and returns the shared
// subslice at zero cost.
func (g *Graph) Neighbors(v Vertex, buf []Vertex) []Vertex {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NumVertices is N under the View interface's name.
func (g *Graph) NumVertices() int { return g.N() }

// NumEdges is M under the View interface's name.
func (g *Graph) NumEdges() int { return g.M() }

// Neighbor returns the i-th neighbor of v.
func (g *Graph) Neighbor(v Vertex, i int) Vertex {
	return g.adj[g.offsets[v]+int64(i)]
}

// CSR exposes the raw compressed-sparse-row arrays: offsets (length N+1)
// and the half-edge adjacency Neighbors slices into. Callers must treat
// both as read-only, exactly as with Neighbors. Hot loops use this to
// skip the per-step offset loads — on a regular graph vertex v's
// neighbors are adj[v*d : (v+1)*d] with no offsets access at all.
func (g *Graph) CSR() (offsets []int64, adj []Vertex) { return g.offsets, g.adj }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
// O(1): cached at Build time.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// MinDegree returns the minimum vertex degree, or 0 for an empty graph.
// O(1): cached at Build time.
func (g *Graph) MinDegree() int { return g.minDeg }

// IsRegular reports whether every vertex has degree exactly d. O(1).
func (g *Graph) IsRegular(d int) bool {
	if g.N() == 0 {
		return true
	}
	return g.minDeg == d && g.maxDeg == d
}

// AlmostRegular reports whether the graph is [(1±eps)·d]-almost-regular in
// the sense of Section 2: every degree lies in [(1-eps)d, (1+eps)d]. O(1).
func (g *Graph) AlmostRegular(d float64, eps float64) bool {
	if g.N() == 0 {
		return true
	}
	lo, hi := (1-eps)*d, (1+eps)*d
	return float64(g.minDeg) >= lo && float64(g.maxDeg) <= hi
}

// Edges returns all undirected edges. Each non-loop edge appears once with
// U <= V; each self-loop appears once. The result is freshly allocated.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := Vertex(0); int(u) < g.N(); u++ {
		loopHalves := 0
		for _, v := range g.Neighbors(u, nil) {
			switch {
			case v > u:
				edges = append(edges, Edge{U: u, V: v})
			case v == u:
				loopHalves++
			}
		}
		for i := 0; i < loopHalves/2; i++ {
			edges = append(edges, Edge{U: u, V: u})
		}
	}
	return edges
}

// ForEachEdge calls fn once per undirected edge (U <= V; loops once).
func (g *Graph) ForEachEdge(fn func(e Edge)) {
	for u := Vertex(0); int(u) < g.N(); u++ {
		loopHalves := 0
		for _, v := range g.Neighbors(u, nil) {
			switch {
			case v > u:
				fn(Edge{U: u, V: v})
			case v == u:
				loopHalves++
			}
		}
		for i := 0; i < loopHalves/2; i++ {
			fn(Edge{U: u, V: u})
		}
	}
}

// HasEdge reports whether at least one edge {u,v} exists. Adjacency lists
// are sorted at Build time, so this is a binary search.
func (g *Graph) HasEdge(u, v Vertex) bool {
	ns := g.Neighbors(u, nil)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Validate checks internal CSR consistency; it is used by tests and by
// constructors of derived graphs.
func (g *Graph) Validate() error {
	if len(g.offsets) == 0 {
		return fmt.Errorf("graph: missing offsets")
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	n := g.N()
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets[n]=%d, len(adj)=%d", g.offsets[n], len(g.adj))
	}
	var halves int64
	for _, u := range g.adj {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: adjacency entry %d out of range [0,%d)", u, n)
		}
		halves++
	}
	if halves != 2*g.m {
		return fmt.Errorf("graph: %d half-edges for m=%d", halves, g.m)
	}
	return nil
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	n     int
	us    []Vertex
	vs    []Vertex
	built bool
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NewBuilderHint is NewBuilder with a capacity hint of expected edges.
func NewBuilderHint(n, edgeHint int) *Builder {
	b := NewBuilder(n)
	b.us = make([]Vertex, 0, edgeHint)
	b.vs = make([]Vertex, 0, edgeHint)
	return b
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.us) }

// AddEdge records an undirected edge {u,v}. Self-loops and parallel edges
// are allowed.
func (b *Builder) AddEdge(u, v Vertex) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// AddEdges records a batch of undirected edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
}

// Build produces the immutable Graph via a two-pass counting sort, then
// sorts each adjacency list so neighbor indexing is deterministic and
// HasEdge can binary-search. The per-vertex sort is the typed
// slices.Sort, so Build allocates the same handful of slices whatever n
// is. Build may be called once.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Build called twice")
	}
	b.built = true
	// Degrees are counted two slots up, so after the prefix sum
	// offsets[v+1] is where v's adjacency starts. Placing a half-edge
	// advances that slot, which leaves offsets[v+1] at v's end — the
	// final CSR offsets — with no separate cursor array to touch.
	offsets := make([]int64, b.n+2)
	for i := range b.us {
		offsets[b.us[i]+2]++
		offsets[b.vs[i]+2]++
	}
	for v := 2; v < len(offsets); v++ {
		offsets[v] += offsets[v-1]
	}
	adj := make([]Vertex, offsets[b.n+1])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		adj[offsets[u+1]] = v
		offsets[u+1]++
		adj[offsets[v+1]] = u
		offsets[v+1]++
	}
	offsets = offsets[:b.n+1]
	g := &Graph{offsets: offsets, adj: adj, m: int64(len(b.us))}
	for v := 0; v < b.n; v++ {
		ns := g.adj[offsets[v]:offsets[v+1]]
		slices.Sort(ns)
		d := len(ns)
		if v == 0 || d < g.minDeg {
			g.minDeg = d
		}
		if d > g.maxDeg {
			g.maxDeg = d
		}
	}
	b.us, b.vs = nil, nil
	return g
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilderHint(n, len(edges))
	b.AddEdges(edges)
	return b.Build()
}

// Simplify returns a copy of g with self-loops and duplicate parallel edges
// removed (the "remove self-loops and duplicate edges" step of Section 8).
func Simplify(g *Graph) *Graph {
	b := NewBuilderHint(g.N(), g.M())
	seen := make(map[Edge]struct{}, g.M())
	g.ForEachEdge(func(e Edge) {
		if e.IsLoop() {
			return
		}
		e = e.Normalize()
		if _, dup := seen[e]; dup {
			return
		}
		seen[e] = struct{}{}
		b.AddEdge(e.U, e.V)
	})
	return b.Build()
}

// AddSelfLoops returns a copy of g with k self-loops added at every vertex.
// Section 5.2 uses this to turn random walks into lazy random walks: adding
// deg-many loops to a Δ-regular graph yields a 2Δ-regular graph whose plain
// walk is the lazy walk of the original.
func AddSelfLoops(g *Graph, k int) *Graph {
	b := NewBuilderHint(g.N(), g.M()+g.N()*k)
	g.ForEachEdge(func(e Edge) { b.AddEdge(e.U, e.V) })
	for v := 0; v < g.N(); v++ {
		for i := 0; i < k; i++ {
			b.AddEdge(Vertex(v), Vertex(v))
		}
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced on the given vertices along
// with the mapping from new vertex ids to original ids. Edges with both
// endpoints in the set are kept (with multiplicity).
func InducedSubgraph(g *Graph, vertices []Vertex) (*Graph, []Vertex) {
	newID := make(map[Vertex]Vertex, len(vertices))
	orig := make([]Vertex, len(vertices))
	for i, v := range vertices {
		newID[v] = Vertex(i)
		orig[i] = v
	}
	b := NewBuilder(len(vertices))
	g.ForEachEdge(func(e Edge) {
		nu, okU := newID[e.U]
		nv, okV := newID[e.V]
		if okU && okV {
			b.AddEdge(nu, nv)
		}
	})
	return b.Build(), orig
}

// Union returns the union (edge multiset sum) of graphs on the same vertex
// set. Section 6 forms G̃ = G̃_1 ∪ ... ∪ G̃_F this way.
func Union(gs ...*Graph) *Graph {
	if len(gs) == 0 {
		return NewBuilder(0).Build()
	}
	n := gs[0].N()
	total := 0
	for _, g := range gs {
		if g.N() != n {
			panic("graph: Union over different vertex counts")
		}
		total += g.M()
	}
	b := NewBuilderHint(n, total)
	for _, g := range gs {
		g.ForEachEdge(func(e Edge) { b.AddEdge(e.U, e.V) })
	}
	return b.Build()
}
