package graph

import "sort"

// Components labels the connected components of g. It returns a dense label
// per vertex (labels in [0, count) assigned in order of discovery from
// vertex 0 upward) and the number of components. This sequential BFS is the
// ground truth for every parallel algorithm in the repository.
func Components(g *Graph) (labels []Vertex, count int) {
	n := g.N()
	labels = make([]Vertex, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]Vertex, 0, n)
	for s := Vertex(0); int(s) < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = Vertex(count)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u, nil) {
				if labels[v] < 0 {
					labels[v] = Vertex(count)
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// Densify renumbers arbitrary label values to dense [0, count) labels
// in order of first appearance (vertex 0 upward) and returns the count.
// The result is a canonical form: two labelings describe the same
// partition iff their densified labels are bit-identical, which is how
// the conformance suites compare algorithms regardless of which label
// values each one emitted.
func Densify(labels []Vertex) ([]Vertex, int) {
	remap := make(map[Vertex]Vertex)
	out := make([]Vertex, len(labels))
	next := Vertex(0)
	for v, l := range labels {
		d, ok := remap[l]
		if !ok {
			d = next
			remap[l] = d
			next++
		}
		out[v] = d
	}
	return out, int(next)
}

// ComponentSizes returns the size of each component given dense labels.
func ComponentSizes(labels []Vertex, count int) []int {
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// SizeHistogram aggregates ComponentSizes into (size, count-of-components)
// pairs in ascending size order — the deterministic presentation both the
// wccfind -sizes flag and the service's sizes query render.
func SizeHistogram(labels []Vertex, count int) [][2]int {
	return SizeHistogramOf(ComponentSizes(labels, count))
}

// SizeHistogramOf is SizeHistogram over an already-computed per-component
// size table, for callers that hold one (the service computes sizes once
// per solve and derives both query tables from it).
func SizeHistogramOf(componentSizes []int) [][2]int {
	hist := map[int]int{}
	for _, s := range componentSizes {
		hist[s]++
	}
	sizes := make([]int, 0, len(hist))
	for s := range hist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	out := make([][2]int, len(sizes))
	for i, s := range sizes {
		out[i] = [2]int{s, hist[s]}
	}
	return out
}

// ComponentMembers groups vertices by dense component label.
func ComponentMembers(labels []Vertex, count int) [][]Vertex {
	sizes := ComponentSizes(labels, count)
	members := make([][]Vertex, count)
	for c := range members {
		members[c] = make([]Vertex, 0, sizes[c])
	}
	for v, l := range labels {
		members[l] = append(members[l], Vertex(v))
	}
	return members
}

// IsConnected reports whether g is connected (the empty graph and the
// single-vertex graph are connected).
func IsConnected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	_, count := Components(g)
	return count == 1
}

// SameLabeling reports whether two labelings induce the same partition of
// the vertex set (label values themselves may differ).
func SameLabeling(a, b []Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[Vertex]Vertex)
	bwd := make(map[Vertex]Vertex)
	for i := range a {
		if want, ok := fwd[a[i]]; ok {
			if want != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if want, ok := bwd[b[i]]; ok {
			if want != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}

// BFS runs breadth-first search from source and returns the distance slice
// (-1 for unreachable vertices) and the parent slice (-1 for the source and
// unreachable vertices).
func BFS(g *Graph, source Vertex) (dist []int32, parent []Vertex) {
	n := g.N()
	dist = make([]int32, n)
	parent = make([]Vertex, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[source] = 0
	queue := []Vertex{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u, nil) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// Eccentricity returns the maximum finite BFS distance from v within its
// component.
func Eccentricity(g *Graph, v Vertex) int {
	dist, _ := BFS(g, v)
	ecc := 0
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter computes the exact diameter of a connected graph by running BFS
// from every vertex. O(n·m); intended for validation on small graphs.
// Returns -1 if the graph is disconnected or empty.
func Diameter(g *Graph) int {
	if g.N() == 0 || !IsConnected(g) {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := Eccentricity(g, Vertex(v)); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterLowerBound estimates the diameter with a double-sweep BFS: BFS
// from start, then BFS from the farthest vertex found. The result is a
// lower bound on the true diameter and is exact on trees. O(m).
func DiameterLowerBound(g *Graph, start Vertex) int {
	if g.N() == 0 {
		return -1
	}
	dist, _ := BFS(g, start)
	far, fd := start, int32(0)
	for v, d := range dist {
		if d > fd {
			far, fd = Vertex(v), d
		}
	}
	dist2, _ := BFS(g, far)
	best := int32(0)
	for _, d := range dist2 {
		if d > best {
			best = d
		}
	}
	return int(best)
}

// SpanningForest returns a spanning forest of g as an edge list: one BFS
// tree per component, n - #components edges in total.
func SpanningForest(g *Graph) []Edge {
	n := g.N()
	visited := make([]bool, n)
	forest := make([]Edge, 0, n)
	queue := make([]Vertex, 0, n)
	for s := Vertex(0); int(s) < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u, nil) {
				if !visited[v] {
					visited[v] = true
					forest = append(forest, Edge{U: u, V: v})
					queue = append(queue, v)
				}
			}
		}
	}
	return forest
}

// IsSpanningForestOf verifies that the edge set forest is a spanning forest
// of g: every edge exists in g, the edges are acyclic, and they connect
// exactly the pairs connected in g.
func IsSpanningForestOf(g *Graph, forest []Edge) bool {
	uf := NewUnionFind(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
		if !uf.Union(e.U, e.V) {
			return false // cycle
		}
	}
	want, count := Components(g)
	if uf.Sets() != count {
		return false
	}
	return SameLabeling(want, uf.Labels())
}
