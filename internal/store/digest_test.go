package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// edgeListDigest is the content address by definition: the SHA-256 of
// the graph's WriteEdgeList text.
func edgeListDigest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// randomMultigraph draws m edges over vertices [lo, n), a share of them
// self-loops and repeats of an earlier edge.
func randomMultigraph(rng *rand.Rand, n, lo, m int) *graph.Graph {
	b := graph.NewBuilderHint(n, m)
	var last graph.Edge
	for i := 0; i < m; i++ {
		e := graph.Edge{U: graph.Vertex(lo + rng.IntN(n-lo)), V: graph.Vertex(lo + rng.IntN(n-lo))}
		switch rng.IntN(8) {
		case 0:
			e.V = e.U
		case 1:
			if i > 0 {
				e = last
			}
		}
		b.AddEdge(e.U, e.V)
		last = e
	}
	return b.Build()
}

// TestDigestGraphIsEdgeListSHA256: graph IDs in existing data
// directories derive from DigestGraph, so it must stay the SHA-256 of
// the WriteEdgeList text — checked over random multigraphs with loops
// and parallel edges, edgeless graphs, and vertex IDs from 1 to 7
// digits (TestAppendUint32MatchesStrconv covers the formatter up to 10).
func TestDigestGraphIsEdgeListSHA256(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	graphs := []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(1).Build(),
		graph.NewBuilder(5000).Build(),
		randomMultigraph(rng, 1_500_000, 1_000_000, 3000), // 7-digit IDs only
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(1<<(1+rng.IntN(17)))
		graphs = append(graphs, randomMultigraph(rng, n, 0, rng.IntN(4*n+1)))
	}
	// Past one digestChunk of text, so the buffer flushes mid-stream.
	graphs = append(graphs, randomMultigraph(rng, 1<<16, 0, 40_000))
	for _, g := range graphs {
		if got, want := DigestGraph(g), edgeListDigest(t, g); got != want {
			t.Fatalf("%v: DigestGraph %s, sha256(WriteEdgeList) %s", g, got, want)
		}
	}
}

// TestDigestViewMappedAndOverlay: the same digest through DigestView
// over a WCCM1 snapshot and over an Overlay of appended edges on it.
func TestDigestViewMappedAndOverlay(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	base := randomMultigraph(rng, 3000, 0, 9000)
	var buf bytes.Buffer
	if err := graph.WriteMapped(&buf, base); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMappedSource(graph.NewBytesSource(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DigestView(mg), edgeListDigest(t, base); got != want {
		t.Fatalf("mapped view digest %s, want %s", got, want)
	}
	// The overlay grows the vertex set and repeats base edges and loops.
	const n = 3500
	delta := append(base.Edges()[:50], graph.Edge{U: 3499, V: 3499}, graph.Edge{U: 0, V: 3200}, graph.Edge{U: 3400, V: 7})
	ov := graph.NewOverlay(mg, n, delta)
	b := graph.NewBuilderHint(n, base.M()+len(delta))
	b.AddEdges(base.Edges())
	b.AddEdges(delta)
	if got, want := DigestView(ov), edgeListDigest(t, b.Build()); got != want {
		t.Fatalf("overlay digest %s, want %s", got, want)
	}
}

// TestDigestGraphGolden pins two content addresses as constants: the
// SHA-256 of "4 5\n0 1\n0 1\n1 2\n2 2\n3 3\n" and of
// "12 3\n0 11\n3 3\n10 11\n". Edge insertion order and orientation do
// not matter; the canonical text does.
func TestDigestGraphGolden(t *testing.T) {
	cases := []struct {
		n     int
		edges []graph.Edge
		want  string
	}{
		{4, []graph.Edge{{U: 2, V: 2}, {U: 1, V: 0}, {U: 3, V: 3}, {U: 2, V: 1}, {U: 0, V: 1}},
			"db8362675f9591886e1b63d166f86e72176168f4e0f581aad95971a498d9387b"},
		{12, []graph.Edge{{U: 11, V: 10}, {U: 3, V: 3}, {U: 11, V: 0}},
			"886ad3d762daaec76c76dc17c8e294ba3a895e5d5b793216118166fad7bc7f13"},
	}
	for _, c := range cases {
		if got := DigestGraph(graph.FromEdges(c.n, c.edges)); got != c.want {
			t.Errorf("n=%d: digest %s, want %s", c.n, got, c.want)
		}
	}
}

// TestAppendUint32MatchesStrconv: the digest's decimal formatter agrees
// with strconv at every digit count from 1 to 10, around every power of
// ten, and at random values.
func TestAppendUint32MatchesStrconv(t *testing.T) {
	xs := []uint32{math.MaxInt32, math.MaxUint32}
	for x := uint32(0); x < 1000; x++ {
		xs = append(xs, x)
	}
	for p := uint32(10); p <= 1e9; p *= 10 {
		xs = append(xs, p-1, p, p+1)
	}
	rng := rand.New(rand.NewPCG(29, 6))
	for i := 0; i < 100_000; i++ {
		xs = append(xs, rng.Uint32()>>rng.IntN(32))
	}
	for _, x := range xs {
		got := appendUint32([]byte("x"), x)
		if want := strconv.AppendUint([]byte("x"), uint64(x), 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint32(%d) = %q, want %q", x, got, want)
		}
	}
}

// BenchmarkDigestGraph hashes a ~10^6-edge random multigraph and
// reports the edge rate.
func BenchmarkDigestGraph(b *testing.B) {
	const m = 1 << 20
	g := randomMultigraph(rand.New(rand.NewPCG(31, 7)), m/2, 0, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DigestGraph(g)
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
