package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
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

// sequentialDigestView is DigestView as it was before it ran on every
// core — one buffer, one goroutine, graph.ForEachEdgeView — kept as the
// oracle the parallel digest must match byte for byte.
func sequentialDigestView(v graph.View) string {
	h := sha256.New()
	buf := make([]byte, 0, digestChunk)
	buf = strconv.AppendInt(buf, int64(v.NumVertices()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(v.NumEdges()), 10)
	buf = append(buf, '\n')
	graph.ForEachEdgeView(v, func(e graph.Edge) {
		if len(buf) > digestChunk-maxEdgeLine {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = append(appendUint32(buf, uint32(e.U)), ' ')
		buf = append(appendUint32(buf, uint32(e.V)), '\n')
	})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// maxEdgeLine is the longest "u v\n" line: two 10-digit vertices.
const maxEdgeLine = 2*10 + 2

// cycle is the n-vertex cycle: every vertex has degree 2.
func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex((i+1)%n))
	}
	return b.Build()
}

// star joins centre to every other vertex of [0, n).
func star(n, centre int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if i != centre {
			b.AddEdge(graph.Vertex(centre), graph.Vertex(i))
		}
	}
	return b.Build()
}

// wccm1 is g's WCCM1 image.
func wccm1(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openView opens a WCCM1 view over src.
func openView(t *testing.T, src graph.MappedSource) *graph.MappedGraph {
	t.Helper()
	mg, err := graph.OpenMappedSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// preadSource hides its source's bytes, so every adjacency access is a
// ReadAt; once failing is set, every ReadAt fails.
type preadSource struct {
	graph.MappedSource
	failing atomic.Bool
}

func (s *preadSource) Bytes() []byte { return nil }

func (s *preadSource) ReadAt(p []byte, off int64) (int, error) {
	if s.failing.Load() {
		return 0, errors.New("injected read failure")
	}
	return s.MappedSource.ReadAt(p, off)
}

// countRanges is the number of vertex ranges DigestView cuts v into.
func countRanges(v graph.View) int {
	cut := newRangeCutter(v)
	k := 0
	for lo := 0; lo < cut.n; lo = cut.next(lo) {
		k++
	}
	return k
}

// withProcs runs f at each GOMAXPROCS setting, restoring the old one.
func withProcs(t *testing.T, procs []int, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs=%d", p), f)
	}
}

// TestDigestViewParallelMatchesOracle: the parallel digest equals the
// sequential oracle and sha256(WriteEdgeList) of the materialized graph
// at GOMAXPROCS 1, 2 and 8, on the empty and one-vertex graphs, on
// graphs of one range plus or minus a vertex; on a multigraph with
// loops and parallel edges; on stars whose centre's text alone exceeds
// digestChunk; and on WCCM1 views (mapped, pread fallback, Overlay).
func TestDigestViewParallelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 8))
	// A cycle on 4-digit vertices charges each vertex 2 halves of a
	// 10-byte line, so one range holds exactly digestChunk/20 vertices.
	const perRange = digestChunk / 20
	multi := randomMultigraph(rng, 20_000, 0, 120_000)
	pread := openView(t, &preadSource{MappedSource: graph.NewBytesSource(wccm1(t, multi))})
	if pread.Mapped() {
		t.Fatal("a source without Bytes() served a mapped view")
	}
	base := randomMultigraph(rng, 6000, 0, 30_000)
	overlayBase := openView(t, &preadSource{MappedSource: graph.NewBytesSource(wccm1(t, base))})
	delta := append(base.Edges()[:200:200],
		graph.Edge{U: 6999, V: 6999}, graph.Edge{U: 0, V: 6500}, graph.Edge{U: 6800, V: 7}, graph.Edge{U: 42, V: 42})
	cases := []struct {
		name   string
		v      graph.View
		ranges int // -1: several, count not pinned
	}{
		{"n=0", graph.NewBuilder(0).Build(), 0},
		{"n=1", graph.NewBuilder(1).Build(), 1},
		{"n=1 loop", graph.FromEdges(1, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 0}}), 1},
		{"one range -1", cycle(perRange - 1), 1},
		{"one range", cycle(perRange), 1},
		{"one range +1", cycle(perRange + 1), 2},
		{"multigraph", multi, -1},
		{"star centre first", star(30_000, 0), -1},
		{"star centre mid", star(30_000, 15_000), -1},
		{"mapped", openView(t, graph.NewBytesSource(wccm1(t, multi))), -1},
		{"pread", pread, -1},
		{"overlay", graph.NewOverlay(overlayBase, 7000, delta), -1},
	}
	for _, c := range cases {
		switch got := countRanges(c.v); {
		case c.ranges < 0 && got < 3:
			t.Fatalf("%s: %d ranges, want several", c.name, got)
		case c.ranges >= 0 && got != c.ranges:
			t.Fatalf("%s: %d ranges, want %d", c.name, got, c.ranges)
		}
	}
	withProcs(t, []int{1, 2, 8}, func(t *testing.T) {
		for _, c := range cases {
			want := edgeListDigest(t, graph.MaterializeView(c.v))
			if got := sequentialDigestView(c.v); got != want {
				t.Fatalf("%s: oracle %s, sha256(WriteEdgeList) %s", c.name, got, want)
			}
			if got := DigestView(c.v); got != want {
				t.Errorf("%s: DigestView %s, want %s", c.name, got, want)
			}
		}
	})
}

// TestDigestViewStarCentreAloneInItsRange: a vertex whose text exceeds
// digestChunk is cut into a range of its own, the one case where a ring
// buffer grows.
func TestDigestViewStarCentreAloneInItsRange(t *testing.T) {
	const n, centre = 30_000, 15_000
	g := star(n, centre)
	cut := newRangeCutter(g)
	lo := 0
	for lo < centre {
		if hi := cut.next(lo); hi > centre {
			t.Fatalf("range [%d,%d) holds the centre and more", lo, hi)
		} else {
			lo = hi
		}
	}
	if lo != centre || cut.next(centre) != centre+1 {
		t.Fatalf("centre %d is not a range of its own: range [%d,%d)", centre, lo, cut.next(lo))
	}
}

// TestDigestViewWorkerPanicReachesCaller: a failed positioned read in a
// range worker panics on DigestView's own goroutine, where the caller
// can recover it, at every GOMAXPROCS.
func TestDigestViewWorkerPanicReachesCaller(t *testing.T) {
	src := &preadSource{MappedSource: graph.NewBytesSource(wccm1(t, randomMultigraph(rand.New(rand.NewPCG(41, 9)), 20_000, 0, 60_000)))}
	mg := openView(t, src)
	if countRanges(mg) < 3 {
		t.Fatal("graph fits too few ranges to reach the workers")
	}
	src.failing.Store(true)
	withProcs(t, []int{1, 2, 8}, func(t *testing.T) {
		defer func() {
			if p := recover(); !strings.Contains(fmt.Sprint(p), "injected read failure") {
				t.Fatalf("recovered %v, want the injected read failure", p)
			}
		}()
		DigestView(mg)
	})
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

// BenchmarkDigestViewMapped is BenchmarkDigestGraph over the graph's
// WCCM1 snapshot file, memory-mapped the way the disk backend serves
// it: the digest Open re-derives.
func BenchmarkDigestViewMapped(b *testing.B) {
	const m = 1 << 20
	g := randomMultigraph(rand.New(rand.NewPCG(31, 7)), m/2, 0, m)
	path := filepath.Join(b.TempDir(), mapFile)
	fsys := fault.OS{}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteMapped(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	mp, err := fsys.Map(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mp.Unmap()
	mg, err := graph.OpenMappedSource(mp)
	if err != nil {
		b.Fatal(err)
	}
	if !mg.Mapped() {
		b.Skip("mmap unavailable: the view would be served by positioned reads")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DigestView(mg)
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
