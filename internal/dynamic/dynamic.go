// Package dynamic is the incremental connectivity engine behind the
// versioned graphs in internal/service: an append-capable union-find that
// absorbs batched edge appends in near-O(α) amortized time per edge,
// tracks the monotone component-merge history those appends induce, and
// fast-forwards previously computed labelings across batches without
// re-running any algorithm.
//
// Connectivity under edge insertions is monotone — components only ever
// merge, never split — which is what makes the incremental path exact
// rather than approximate: the partition after a batch is a coarsening of
// the partition before it, fully determined by which inter-component
// edges the batch contained. Engine maintains that coarsening online;
// MergeLabels replays it onto any dense labeling produced by a registry
// algorithm (internal/algo), yielding a labeling bit-identical (up to
// the canonical first-appearance relabeling) to a fresh full solve of the
// appended graph. The cross-algorithm conformance suite and the service's
// end-to-end scenario test assert exactly that equivalence.
package dynamic

import (
	"fmt"

	"repro/internal/graph"
)

// Merge is one component merge in the engine's history: at Version, the
// set represented by Loser was absorbed into the set represented by
// Winner. Representatives are union-find roots at merge time; a Loser
// never appears as a Winner or Loser of a later merge, which is the
// monotonicity the history encodes.
type Merge struct {
	Version int
	Winner  graph.Vertex
	Loser   graph.Vertex
}

// Engine is incremental connectivity over an append-only edge stream.
// It is not safe for concurrent use; internal/service serializes appends
// per stored graph.
type Engine struct {
	uf      *graph.UnionFind
	version int
	edges   int
	merges  []Merge
}

// New returns an engine over n isolated vertices at version 0.
func New(n int) *Engine {
	return &Engine{uf: graph.NewUnionFind(n)}
}

// FromGraph seeds an engine with v's edges as version 0 — the base
// snapshot of a versioned graph. v may be an in-RAM *Graph or a view
// served off a mapped store snapshot: the edges are streamed through
// graph.ForEachEdgeView, so seeding never builds a CSR. The base merges
// are not recorded in the history; History tracks the appended deltas.
func FromGraph(v graph.View) *Engine {
	e := New(v.NumVertices())
	graph.ForEachEdgeView(v, func(edge graph.Edge) { e.uf.Union(edge.U, edge.V) })
	e.edges = v.NumEdges()
	return e
}

// Apply absorbs one appended batch, growing the vertex set by grow
// singletons first, and bumps the version. It returns the number of
// component merges the batch caused. Endpoints must lie in [0, N()+grow);
// out-of-range endpoints panic, mirroring graph.Builder — the service
// validates untrusted batches with graph.ReadEdgeBatch before applying.
func (e *Engine) Apply(batch []graph.Edge, grow int) int {
	if grow > 0 {
		e.uf.Grow(grow)
	}
	e.version++
	merged := 0
	for _, edge := range batch {
		ru, rv := e.uf.Find(edge.U), e.uf.Find(edge.V)
		if ru == rv {
			continue
		}
		e.uf.Union(ru, rv)
		// The surviving representative is whatever the forest reports
		// post-merge — no duplication of UnionFind's tie-break here. The
		// history stays bounded: components only merge, so a graph accrues
		// at most N()-1 entries over its whole lifetime.
		winner, loser := e.uf.Find(ru), rv
		if winner == rv {
			loser = ru
		}
		e.merges = append(e.merges, Merge{Version: e.version, Winner: winner, Loser: loser})
		merged++
	}
	e.edges += len(batch)
	return merged
}

// N returns the current vertex count.
func (e *Engine) N() int { return e.uf.N() }

// Edges returns the cumulative number of edges absorbed, base included.
func (e *Engine) Edges() int { return e.edges }

// Version returns the number of batches applied since the base snapshot.
func (e *Engine) Version() int { return e.version }

// Components returns the current number of connected components.
func (e *Engine) Components() int { return e.uf.Sets() }

// SameComponent reports whether u and v are currently connected.
func (e *Engine) SameComponent(u, v graph.Vertex) bool { return e.uf.Connected(u, v) }

// ComponentSize returns the size of u's current component.
func (e *Engine) ComponentSize(u graph.Vertex) int { return e.uf.SetSize(u) }

// Labels returns the current dense canonical labeling (first-appearance
// order, the same convention every registry algorithm's labeling is
// compared under).
func (e *Engine) Labels() []graph.Vertex { return e.uf.Labels() }

// History returns the component-merge history of all applied batches,
// in application order. The returned slice is owned by the engine.
func (e *Engine) History() []Merge { return e.merges }

// MergeLabels fast-forwards a dense component labeling across an appended
// edge batch without touching the underlying graph: labels is a dense
// labeling of the first len(labels) vertices (every label in [0,count)
// used), newN >= len(labels) extends the vertex set with isolated
// newcomers, and batch is the appended edges over [0, newN). It returns
// the canonical labeling of the appended graph — labels assigned in
// order of first appearance by vertex, whatever order the input used —
// and its component count. The input is never modified.
//
// The work is O(newN + |batch|·α) — independent of the edge count of the
// underlying graph — and every remap is a slice indexed by component, so
// the only allocations are the output and tables of count+grown entries. The
// service forwards one shared partition per version through
// MergePartition, which wraps this pass.
func MergeLabels(labels []graph.Vertex, count int, batch []graph.Edge, newN int) ([]graph.Vertex, int, error) {
	out, _, sets, err := mergeLabels(labels, count, batch, newN)
	return out, sets, err
}

// MergePartition is MergeLabels for a labeling that carries its component
// sizes: sizes[c] is the number of vertices labeled c (len(sizes) is the
// component count). It returns the canonical labeling of the appended
// graph and its size table. The new sizes are folded from the old ones
// component by component, in O(len(sizes) + grown vertices), instead of
// rescanning the n output labels.
func MergePartition(labels []graph.Vertex, sizes []int, batch []graph.Edge, newN int) ([]graph.Vertex, []int, error) {
	count := len(sizes)
	out, newOf, sets, err := mergeLabels(labels, count, batch, newN)
	if err != nil {
		return nil, nil, err
	}
	newSizes := make([]int, sets)
	for c, nl := range newOf {
		switch {
		case c >= count:
			newSizes[nl]++ // a grown singleton
		case nl >= 0:
			newSizes[nl] += sizes[c]
		case sizes[c] != 0:
			return nil, nil, fmt.Errorf("dynamic: component %d has size %d but labels no vertex", c, sizes[c])
		}
	}
	return out, newSizes, nil
}

// mergeLabels is the pass behind MergeLabels and MergePartition. Besides
// the output labeling and the component count it returns newOf: for each
// old component c < count, and for each grown vertex at count+i, the
// output label it became (-1 only for a component no vertex carries).
func mergeLabels(labels []graph.Vertex, count int, batch []graph.Edge, newN int) (out, newOf []graph.Vertex, sets int, err error) {
	oldN := len(labels)
	if newN < oldN {
		return nil, nil, 0, fmt.Errorf("dynamic: newN %d below current vertex count %d", newN, oldN)
	}
	// Component-level forest: one element per existing component plus one
	// per grown vertex.
	k := count + newN - oldN
	uf := graph.NewUnionFind(k)
	labelOf := func(v graph.Vertex) (graph.Vertex, error) {
		switch {
		case v < 0 || int(v) >= newN:
			return 0, fmt.Errorf("dynamic: batch endpoint %d out of range [0,%d)", v, newN)
		case int(v) < oldN:
			l := labels[v]
			if l < 0 || int(l) >= count {
				return 0, fmt.Errorf("dynamic: label %d of vertex %d outside [0,%d)", l, v, count)
			}
			return l, nil
		default:
			return graph.Vertex(count + int(v) - oldN), nil
		}
	}
	for _, e := range batch {
		lu, err := labelOf(e.U)
		if err != nil {
			return nil, nil, 0, err
		}
		lv, err := labelOf(e.V)
		if err != nil {
			return nil, nil, 0, err
		}
		uf.Union(lu, lv)
	}
	// newOf doubles as the first-appearance table: an element's entry is
	// set the first time a vertex carrying it is scanned, and a root's
	// entry the first time any member of its set is, so each label costs
	// one Find, not each vertex.
	newOf = make([]graph.Vertex, k)
	for i := range newOf {
		newOf[i] = -1
	}
	out = make([]graph.Vertex, newN)
	next := graph.Vertex(0)
	for v := 0; v < newN; v++ {
		c := graph.Vertex(count + v - oldN)
		if v < oldN {
			c = labels[v]
			if c < 0 || int(c) >= count {
				return nil, nil, 0, fmt.Errorf("dynamic: label %d of vertex %d outside [0,%d)", c, v, count)
			}
		}
		nl := newOf[c]
		if nl < 0 {
			r := uf.Find(c)
			if nl = newOf[r]; nl < 0 {
				nl = next
				next++
				newOf[r] = nl
			}
			newOf[c] = nl
		}
		out[v] = nl
	}
	return out, newOf, uf.Sets(), nil
}
