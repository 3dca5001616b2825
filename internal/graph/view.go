package graph

import (
	"fmt"
	"sort"
)

// View is the read surface connectivity solvers run on: exactly what a
// neighbor scan needs, nothing that requires the adjacency to be
// heap-resident. The in-RAM *Graph implements it by returning shared
// CSR subslices; MappedGraph (mapped.go) implements it over an
// mmap-backed WCCM1 snapshot, and Overlay layers appended edges on any
// base. Degree and the counts must be O(1) — implementations keep the
// O(n) offset array resident even when the adjacency is not.
//
// A View is read concurrently: Degree and Neighbors must be safe to
// call from many goroutines at once, each passing its own buf. The
// parallel solver's chunked scans and store.DigestView's range workers
// rely on it.
type View interface {
	// NumVertices returns the number of vertices.
	NumVertices() int
	// NumEdges returns the number of undirected edges (loops count once).
	NumEdges() int
	// Degree returns the degree of v (self-loops contribute 2).
	Degree(v Vertex) int
	// Neighbors returns the adjacency of v. Implementations backed by
	// resident memory ignore buf and return a shared subslice;
	// out-of-core implementations decode into buf when it has capacity
	// Degree(v) and allocate otherwise. Either way the result is
	// read-only and valid only until the next Neighbors call that
	// reuses buf. Callers that scan in a loop pass a buffer pre-grown
	// to Degree(v) so no implementation ever allocates per vertex.
	Neighbors(v Vertex, buf []Vertex) []Vertex
}

// ForEachEdgeView is ForEachEdge over any View: fn is called once per
// undirected edge (U <= V; loops once), in the same canonical order the
// CSR iteration produces. The view must be in canonical form — each
// adjacency sorted, every non-loop half mirrored, loop halves even —
// which holds for every View this package constructs (an Overlay
// merges its base and delta runs to keep it).
func ForEachEdgeView(v View, fn func(e Edge)) {
	n := v.NumVertices()
	var buf []Vertex
	for u := Vertex(0); int(u) < n; u++ {
		if d := v.Degree(u); cap(buf) < d {
			buf = make([]Vertex, d)
		}
		loopHalves := 0
		for _, w := range v.Neighbors(u, buf[:cap(buf)]) {
			switch {
			case w > u:
				fn(Edge{U: u, V: w})
			case w == u:
				loopHalves++
			}
		}
		for i := 0; i < loopHalves/2; i++ {
			fn(Edge{U: u, V: u})
		}
	}
}

// MaterializeView rebuilds an in-RAM *Graph from a canonical-form view:
// the inverse of serving a graph out of core, used when a caller needs
// the full CSR API (digesting, compaction of small records, wccfind's
// BFS verification) and has decided the memory cost is acceptable.
func MaterializeView(v View) *Graph {
	b := NewBuilderHint(v.NumVertices(), v.NumEdges())
	ForEachEdgeView(v, func(e Edge) { b.AddEdge(e.U, e.V) })
	return b.Build()
}

// Overlay is a View of "base plus appended edges" without rebuilding
// the base: the store serves post-snapshot versions of an out-of-core
// graph this way, keeping only the delta (O(batch window)) resident.
// Neighbors merges a vertex's sorted base run with its sorted delta
// run, so an overlay is in canonical form and scans in exactly the
// order a rebuilt CSR would.
type Overlay struct {
	base View
	n    int
	m    int
	// off/adj are a CSR of the delta's half-edges over all n vertices.
	off []int64
	adj []Vertex
}

// NewOverlay layers edges over base on n >= base.NumVertices() vertices
// (appends may grow the vertex set). Endpoints must lie in [0, n).
func NewOverlay(base View, n int, edges []Edge) *Overlay {
	if n < base.NumVertices() {
		panic(fmt.Sprintf("graph: overlay on %d vertices cannot shrink a %d-vertex base", n, base.NumVertices()))
	}
	off := make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: overlay edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]Vertex, off[n])
	cursor := make([]int64, n)
	for _, e := range edges {
		adj[off[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[off[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		ns := adj[off[v]:off[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	return &Overlay{base: base, n: n, m: base.NumEdges() + len(edges), off: off, adj: adj}
}

func (o *Overlay) NumVertices() int { return o.n }
func (o *Overlay) NumEdges() int    { return o.m }

func (o *Overlay) Degree(v Vertex) int {
	d := int(o.off[v+1] - o.off[v])
	if int(v) < o.base.NumVertices() {
		d += o.base.Degree(v)
	}
	return d
}

func (o *Overlay) Neighbors(v Vertex, buf []Vertex) []Vertex {
	extra := o.adj[o.off[v]:o.off[v+1]]
	if int(v) >= o.base.NumVertices() {
		return extra
	}
	if len(extra) == 0 {
		return o.base.Neighbors(v, buf)
	}
	d := o.base.Degree(v) + len(extra)
	if cap(buf) < d {
		buf = make([]Vertex, d)
	}
	buf = buf[:d]
	bs := o.base.Neighbors(v, buf[:d-len(extra)])
	// The base may have decoded into buf's prefix already (overlapping
	// copy is a no-op then) or returned its own shared slice.
	copy(buf, bs)
	// Merge the delta in from the back: the write cursor k never
	// overtakes the unread base element i (k = i+j+1), so the merge is
	// in place.
	i, j := len(bs)-1, len(extra)-1
	for k := d - 1; j >= 0; k-- {
		if i >= 0 && buf[i] > extra[j] {
			buf[k] = buf[i]
			i--
		} else {
			buf[k] = extra[j]
			j--
		}
	}
	return buf
}
