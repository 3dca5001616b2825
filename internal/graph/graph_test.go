package graph

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(Vertex(i), Vertex(i+1))
	}
	return b.Build()
}

func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(Vertex(i), Vertex((i+1)%n))
	}
	return b.Build()
}

func clique(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(Vertex(i), Vertex(j))
		}
	}
	return b.Build()
}

func randomGraph(n, m int, rng *rand.Rand) *Graph {
	b := NewBuilderHint(n, m)
	for i := 0; i < m; i++ {
		b.AddEdge(Vertex(rng.IntN(n)), Vertex(rng.IntN(n)))
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		wantN      int
		wantM      int
		wantDegree map[Vertex]int
	}{
		{"empty", NewBuilder(0).Build(), 0, 0, nil},
		{"isolated", NewBuilder(3).Build(), 3, 0, map[Vertex]int{0: 0, 2: 0}},
		{"path4", path(4), 4, 3, map[Vertex]int{0: 1, 1: 2, 3: 1}},
		{"cycle5", cycle(5), 5, 5, map[Vertex]int{0: 2, 4: 2}},
		{"K4", clique(4), 4, 6, map[Vertex]int{0: 3, 3: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tt.g.N(); got != tt.wantN {
				t.Errorf("N() = %d, want %d", got, tt.wantN)
			}
			if got := tt.g.M(); got != tt.wantM {
				t.Errorf("M() = %d, want %d", got, tt.wantM)
			}
			for v, want := range tt.wantDegree {
				if got := tt.g.Degree(v); got != want {
					t.Errorf("Degree(%d) = %d, want %d", v, got, want)
				}
			}
		})
	}
}

func TestSelfLoopDegreeConvention(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3 (loop counts twice)", got)
	}
	if got := g.M(); got != 2 {
		t.Errorf("M() = %d, want 2 (loop counts once)", got)
	}
	if got := len(g.Edges()); got != 2 {
		t.Errorf("len(Edges()) = %d, want 2", got)
	}
}

func TestParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 3; i++ {
		b.AddEdge(0, 1)
	}
	g := b.Build()
	if g.M() != 3 || g.Degree(0) != 3 || g.Degree(1) != 3 {
		t.Errorf("parallel edges mishandled: m=%d d0=%d d1=%d", g.M(), g.Degree(0), g.Degree(1))
	}
	if got := len(g.Edges()); got != 3 {
		t.Errorf("Edges() returned %d edges, want 3", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(40)
		m := rng.IntN(120)
		g := randomGraph(n, m, rng)
		g2 := FromEdges(n, g.Edges())
		if err := g2.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g2.M() != g.M() {
			t.Fatalf("trial %d: M %d != %d", trial, g2.M(), g.M())
		}
		for v := 0; v < n; v++ {
			if g.Degree(Vertex(v)) != g2.Degree(Vertex(v)) {
				t.Fatalf("trial %d: degree mismatch at %d", trial, v)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := path(5)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge misses existing edge")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Error("HasEdge reports nonexistent edge")
	}
}

func TestNeighborOrderingStable(t *testing.T) {
	g := clique(5)
	for v := Vertex(0); v < 5; v++ {
		ns := g.Neighbors(v, nil)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] > ns[i] {
				t.Fatalf("neighbors of %d not sorted: %v", v, ns)
			}
		}
		for i := range ns {
			if g.Neighbor(v, i) != ns[i] {
				t.Fatalf("Neighbor(%d,%d) mismatch", v, i)
			}
		}
	}
}

func TestAlmostRegular(t *testing.T) {
	if !cycle(10).AlmostRegular(2, 0) {
		t.Error("cycle should be exactly 2-regular")
	}
	if path(10).AlmostRegular(2, 0.4) {
		t.Error("path endpoints have degree 1, outside (1±0.4)·2")
	}
	if !path(10).AlmostRegular(2, 0.5) {
		t.Error("path is (1±0.5)·2-almost-regular")
	}
}

func TestSimplify(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	b.AddEdge(1, 2)
	g := Simplify(b.Build())
	if g.M() != 2 {
		t.Fatalf("Simplify left %d edges, want 2", g.M())
	}
	if g.HasEdge(1, 1) {
		t.Error("Simplify left a self-loop")
	}
}

func TestAddSelfLoops(t *testing.T) {
	g := AddSelfLoops(cycle(6), 2)
	if !g.IsRegular(6) {
		t.Errorf("cycle+2 loops should be 6-regular (2 + 2·2 loop halves)")
	}
	if g.M() != 6+12 {
		t.Errorf("M = %d, want 18", g.M())
	}
}

func TestUnion(t *testing.T) {
	g := Union(path(4), cycle(4))
	if g.M() != 3+4 {
		t.Errorf("Union M = %d, want 7", g.M())
	}
	if g.Degree(0) != 1+2 {
		t.Errorf("Union degree(0) = %d, want 3", g.Degree(0))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := clique(5)
	sub, orig := InducedSubgraph(g, []Vertex{1, 3, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 3 || orig[2] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets = %d, want 6", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions should merge")
	}
	if uf.Union(0, 2) {
		t.Error("Union of already-joined should report false")
	}
	if !uf.Connected(0, 2) || uf.Connected(0, 3) {
		t.Error("connectivity wrong")
	}
	if uf.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", uf.Sets())
	}
	labels := uf.Labels()
	if labels[0] != labels[2] || labels[0] == labels[3] {
		t.Errorf("labels = %v", labels)
	}
}

// Property: union-find agrees with BFS components on random graphs.
func TestUnionFindMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(60)
		g := randomGraph(n, rng.IntN(2*n), rng)
		uf := NewUnionFind(n)
		g.ForEachEdge(func(e Edge) { uf.Union(e.U, e.V) })
		want, count := Components(g)
		if uf.Sets() != count {
			t.Fatalf("trial %d: sets %d != components %d", trial, uf.Sets(), count)
		}
		if !SameLabeling(want, uf.Labels()) {
			t.Fatalf("trial %d: labelings differ", trial)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	labels, count := Components(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	sizes := ComponentSizes(labels, count)
	wantSizes := map[int]int{3: 1, 2: 1, 1: 2}
	got := map[int]int{}
	for _, s := range sizes {
		got[s]++
	}
	for k, v := range wantSizes {
		if got[k] != v {
			t.Errorf("component size histogram: got %v", got)
			break
		}
	}
	members := ComponentMembers(labels, count)
	total := 0
	for _, ms := range members {
		total += len(ms)
	}
	if total != 7 {
		t.Errorf("members cover %d vertices, want 7", total)
	}
}

// TestDensify pins the first-appearance relabel: order, count,
// idempotence, and partition preservation.
func TestDensify(t *testing.T) {
	in := []Vertex{7, 7, 3, 7, 3, 9}
	got, count := Densify(in)
	want := []Vertex{0, 0, 1, 0, 1, 2}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Densify(%v) = %v, want %v", in, got, want)
		}
	}
	again, _ := Densify(got)
	for i := range got {
		if again[i] != got[i] {
			t.Fatal("Densify not idempotent on canonical input")
		}
	}
	if !SameLabeling(in, got) {
		t.Fatal("Densify changed the partition")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path6", path(6), 5},
		{"cycle8", cycle(8), 4},
		{"K5", clique(5), 1},
		{"single", NewBuilder(1).Build(), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Diameter(tt.g); got != tt.want {
				t.Errorf("Diameter = %d, want %d", got, tt.want)
			}
			lb := DiameterLowerBound(tt.g, 0)
			if lb > tt.want {
				t.Errorf("DiameterLowerBound = %d exceeds true %d", lb, tt.want)
			}
		})
	}
	if Diameter(NewBuilder(3).Build()) != -1 {
		t.Error("Diameter of disconnected graph should be -1")
	}
}

func TestBFSParents(t *testing.T) {
	g := path(5)
	dist, parent := BFS(g, 2)
	wantDist := []int32{2, 1, 0, 1, 2}
	for v, d := range dist {
		if d != wantDist[v] {
			t.Errorf("dist[%d] = %d, want %d", v, d, wantDist[v])
		}
	}
	if parent[2] != -1 || parent[1] != 2 || parent[0] != 1 {
		t.Errorf("parents = %v", parent)
	}
}

func TestSpanningForest(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(50)
		g := randomGraph(n, rng.IntN(3*n), rng)
		forest := SpanningForest(g)
		_, count := Components(g)
		if len(forest) != n-count {
			t.Fatalf("trial %d: forest has %d edges, want %d", trial, len(forest), n-count)
		}
		if !IsSpanningForestOf(g, forest) {
			t.Fatalf("trial %d: not a valid spanning forest", trial)
		}
	}
}

func TestIsSpanningForestOfRejectsBad(t *testing.T) {
	g := cycle(4)
	// A cycle is not a forest.
	if IsSpanningForestOf(g, g.Edges()) {
		t.Error("accepted a cyclic edge set")
	}
	// An edge not in g.
	if IsSpanningForestOf(g, []Edge{{0, 2}}) {
		t.Error("accepted a non-edge")
	}
	// Too few edges (doesn't span).
	if IsSpanningForestOf(g, []Edge{{0, 1}}) {
		t.Error("accepted a non-spanning forest")
	}
}

func TestContract(t *testing.T) {
	// Two triangles joined by one edge; contract each triangle to a point.
	b := NewBuilder(6)
	tri := func(a, c, d Vertex) { b.AddEdge(a, c); b.AddEdge(c, d); b.AddEdge(d, a) }
	tri(0, 1, 2)
	tri(3, 4, 5)
	b.AddEdge(2, 3)
	g := b.Build()
	c, err := Contract(g, []Vertex{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.H.N() != 2 || c.H.M() != 1 {
		t.Fatalf("contraction: n=%d m=%d, want 2,1", c.H.N(), c.H.M())
	}
	lifted, err := c.LiftEdges([]Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lifted) != 1 || lifted[0].Normalize() != (Edge{2, 3}) {
		t.Errorf("lifted = %v, want [(2,3)]", lifted)
	}
}

func TestContractRejectsBadPartition(t *testing.T) {
	g := path(3)
	if _, err := Contract(g, []Vertex{0, 1}, 2); err == nil {
		t.Error("want error for short partOf")
	}
	if _, err := Contract(g, []Vertex{0, 5, 1}, 2); err == nil {
		t.Error("want error for out-of-range part")
	}
}

// Property: contraction preserves connectivity structure — two parts are in
// the same component of H iff their members are connected in G.
func TestContractPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 4))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(40)
		g := randomGraph(n, rng.IntN(2*n), rng)
		parts := 1 + rng.IntN(n)
		partOf := make([]Vertex, n)
		for v := range partOf {
			partOf[v] = Vertex(rng.IntN(parts))
		}
		c, err := Contract(g, partOf, parts)
		if err != nil {
			t.Fatal(err)
		}
		// Build the "merged" graph: g plus a clique inside each part, whose
		// components should match the components of H pulled back.
		mb := NewBuilder(n)
		g.ForEachEdge(func(e Edge) { mb.AddEdge(e.U, e.V) })
		for _, ms := range c.Parts {
			for i := 1; i < len(ms); i++ {
				mb.AddEdge(ms[0], ms[i])
			}
		}
		merged := mb.Build()
		mergedLabels, _ := Components(merged)
		hLabels, _ := Components(c.H)
		pulled := make([]Vertex, n)
		for v := 0; v < n; v++ {
			pulled[v] = hLabels[partOf[v]]
		}
		if !SameLabeling(mergedLabels, pulled) {
			t.Fatalf("trial %d: contraction connectivity mismatch", trial)
		}
	}
}

func TestEdgeListIO(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(30)
		g := randomGraph(n, rng.IntN(60), rng)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		for v := 0; v < n; v++ {
			if g.Degree(Vertex(v)) != g2.Degree(Vertex(v)) {
				t.Fatalf("round trip changed degree of %d", v)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"badFields":    "2 1\n0 1 2\n",
		"outOfRange":   "2 1\n0 5\n",
		"wrongCount":   "3 2\n0 1\n",
		"nonNumeric":   "2 1\nzero one\n",
		"negativeHead": "-1 0\n",
		// Vertex is 32-bit: header vertex counts past its range must be
		// rejected before any allocation is sized from them.
		"vertexOverflow": "4294967296 0\n",
		"vertexMax+1":    "2147483648 1\n0 1\n",
		// A huge claimed edge count is only a clamped hint; the read still
		// fails (cheaply, without the 16 GB allocation the header asks
		// for) because the edges are not actually present.
		"edgeCountUnbacked": "2 1000000000\n0 1\n",
	}
	t.Run("callerVertexLimit", func(t *testing.T) {
		// Servers cap the header's n below the Vertex range: an accepted
		// count costs O(n) at Build even with zero edges.
		if _, err := ReadEdgeListLimit(bytes.NewBufferString("2000 0\n"), 1000, 0); err == nil {
			t.Error("want error past the caller's vertex limit")
		}
		if g, err := ReadEdgeListLimit(bytes.NewBufferString("5 1\n0 1\n"), 1000, 1000); err != nil || g.N() != 5 {
			t.Errorf("within limit: g=%v err=%v", g, err)
		}
	})
	t.Run("callerEdgeLimit", func(t *testing.T) {
		// The edge cap aborts during parsing — both a header claiming too
		// many edges and extra unclaimed edge lines trip it.
		if _, err := ReadEdgeListLimit(bytes.NewBufferString("4 3\n0 1\n1 2\n2 3\n"), 0, 2); err == nil {
			t.Error("want error for header past the edge limit")
		}
		in := "2 1\n" + strings.Repeat("0 1\n", 10)
		if _, err := ReadEdgeListLimit(bytes.NewBufferString(in), 0, 4); err == nil {
			t.Error("want error once parsed edges exceed the limit")
		}
	})
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

// quick-check: Edge.Normalize is idempotent and order-insensitive.
func TestEdgeNormalizeQuick(t *testing.T) {
	f := func(u, v int16) bool {
		e := Edge{U: Vertex(u), V: Vertex(v)}.Normalize()
		r := Edge{U: Vertex(v), V: Vertex(u)}.Normalize()
		return e == r && e == e.Normalize() && e.U <= e.V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// quick-check: SameLabeling is reflexive and symmetric on random labelings.
func TestSameLabelingQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		a := make([]Vertex, len(raw))
		for i, r := range raw {
			a[i] = Vertex(r % 5)
		}
		b := make([]Vertex, len(raw))
		for i := range a {
			b[i] = a[i] + 100 // consistent relabeling
		}
		return SameLabeling(a, a) && SameLabeling(a, b) == SameLabeling(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSameLabelingRejects(t *testing.T) {
	if SameLabeling([]Vertex{0, 0, 1}, []Vertex{0, 1, 1}) {
		t.Error("accepted different partitions")
	}
	if SameLabeling([]Vertex{0}, []Vertex{0, 1}) {
		t.Error("accepted different lengths")
	}
}
