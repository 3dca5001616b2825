package graph

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// edgeListText returns the WriteEdgeList text of a random multigraph
// with m edges on m/2 vertices.
func edgeListText(tb testing.TB, m int, seed uint64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, randomGraph(max(m/2, 1), m, rand.New(rand.NewPCG(seed, 1)))); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadEdgeListAllocsFlatInLines: parsing allocates per input, not
// per line. Both inputs stay under the header's pre-allocation hint, so
// the builder never grows and a 20x longer input must cost no more
// allocations than the short one (give or take the odd runtime
// allocation MemStats also counts; per-line allocation costs 10^5).
func TestReadEdgeListAllocsFlatInLines(t *testing.T) {
	allocs := func(text []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadEdgeListLimit(bytes.NewReader(text), 0, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(edgeListText(t, 10_000, 1)), allocs(edgeListText(t, 200_000, 2))
	t.Logf("allocs: 10k edges %.0f, 200k edges %.0f", small, big)
	if big > small+2 {
		t.Errorf("allocations grow with line count: %.0f at 10k edges, %.0f at 200k", small, big)
	}
}

// TestReadEdgeListTinyBodyAllocatesLittle: a tiny body pays for a
// small read buffer, not for the 1 MiB longest line it could have held,
// whether it is read as an edge list or as an append batch.
func TestReadEdgeListTinyBodyAllocatesLittle(t *testing.T) {
	const runs = 50
	body := []byte("3 1\n0 1\n")
	for _, tc := range []struct {
		name  string
		parse func(io.Reader) error
	}{
		{"ReadEdgeListLimit", func(r io.Reader) error { _, err := ReadEdgeListLimit(r, 0, 0); return err }},
		{"ReadEdgeBatch", func(r io.Reader) error { _, err := ReadEdgeBatch(r, 4, 16); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := tc.parse(bytes.NewReader(body)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B per parse of a %d-byte body", tc.name, perRun, len(body))
		if perRun > 2*readBufBytes {
			t.Errorf("%s: parsing a %d-byte body allocates %d B, want at most %d", tc.name, len(body), perRun, 2*readBufBytes)
		}
	}
}

// TestBuildAllocsFlatInVertices: Build makes a fixed number of
// allocations (the CSR arrays, a cursor, the Graph) whatever n is — no
// allocation per vertex, which a closure-based sort per adjacency
// would add (10^5 of them at the larger n).
func TestBuildAllocsFlatInVertices(t *testing.T) {
	allocs := func(n int) float64 {
		const runs = 3
		rng := rand.New(rand.NewPCG(uint64(n), 2))
		// AllocsPerRun calls f once more than runs, and Build is
		// single-use: one prepared builder per call.
		builders := make([]*Builder, runs+1)
		for i := range builders {
			builders[i] = NewBuilderHint(n, 2*n)
			for j := 0; j < 2*n; j++ {
				builders[i].AddEdge(Vertex(rng.IntN(n)), Vertex(rng.IntN(n)))
			}
		}
		return testing.AllocsPerRun(runs, func() {
			b := builders[len(builders)-1]
			builders = builders[:len(builders)-1]
			b.Build()
		})
	}
	small, big := allocs(1_000), allocs(100_000)
	t.Logf("Build allocs: n=1000 %.0f, n=100000 %.0f", small, big)
	if big > small+2 {
		t.Errorf("Build allocations grow with n: %.0f at n=1000, %.0f at n=100000", small, big)
	}
}

// TestReadEdgeListLongLineNamesLine: a line past the 1 MiB limit fails
// with its own line number, not a bare scanner error; the longest
// allowed line still loads.
func TestReadEdgeListLongLineNamesLine(t *testing.T) {
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) + "\n" }
	if _, err := ReadEdgeList(strings.NewReader("2 1\n" + comment(1<<20-1) + "0 1\n")); err != nil {
		t.Fatalf("line of 1 MiB - 1 bytes: %v", err)
	}
	_, err := ReadEdgeList(strings.NewReader("2 1\n\n" + comment(1<<20) + "0 1\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "graph: line 3: ") {
		t.Fatalf("line of 1 MiB: got %v, want a line 3 error", err)
	}
}

// failingReader yields data, then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadEdgeListReaderErrorWins: a reader failing mid-line surfaces
// its own error (reachable through errors.Is), never a parse error
// about the partial line in front of it, and never a graph.
func TestReadEdgeListReaderErrorWins(t *testing.T) {
	cut := errors.New("body cut")
	for _, data := range []string{"3 2\n0 1\n1 ", "3 2\n0 1\n1", "3 2\n0 1\n", "3 2\n0 1\n1 2"} {
		_, err := ReadEdgeList(&failingReader{data: []byte(data), err: cut})
		if !errors.Is(err, cut) {
			t.Errorf("input %q: got %v, want the reader's error", data, err)
		}
	}
	// Errors on complete lines before the failure still come first.
	_, err := ReadEdgeList(&failingReader{data: []byte("3 2\n0 9\n1 "), err: cut})
	if err == nil || !strings.Contains(err.Error(), "line 2: edge (0,9) out of range") {
		t.Errorf("got %v, want the line 2 range error", err)
	}
	if _, err := ReadEdgeList(&failingReader{data: []byte("1 0\n"), err: io.EOF}); err != nil {
		t.Errorf("clean EOF: %v", err)
	}
}

// TestReadEdgeListLongLineAcrossReads: a line many read buffers long
// is gathered whole however the reader splits it, and a reader failing
// inside it still surfaces its own error.
func TestReadEdgeListLongLineAcrossReads(t *testing.T) {
	long := "#" + strings.Repeat("x", 5*readBufBytes+3) + "\n"
	text := "3 2\n0 1\n" + long + long + "1 2\n"
	for _, r := range []io.Reader{strings.NewReader(text), iotest.HalfReader(strings.NewReader(text))} {
		g, err := ReadEdgeList(r)
		if err != nil || g.M() != 2 {
			t.Fatalf("got %v, %v; want the 2-edge graph", g, err)
		}
	}
	cut := errors.New("body cut")
	_, err := ReadEdgeList(&failingReader{data: []byte(text[:len(text)-len(long)-10]), err: cut})
	if !errors.Is(err, cut) || !strings.HasPrefix(err.Error(), "graph: line 3: ") {
		t.Fatalf("got %v, want the reader's error on line 3", err)
	}
}

// TestWriteEdgeListFormat pins WriteEdgeList's bytes: the header, then
// one "u v" line per edge in canonical order, loops once.
func TestWriteEdgeListFormat(t *testing.T) {
	b := NewBuilder(12)
	b.AddEdge(11, 0)
	b.AddEdge(3, 3)
	b.AddEdge(10, 2)
	b.AddEdge(0, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	if want := "12 4\n0 11\n0 11\n2 10\n3 3\n"; buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// BenchmarkReadEdgeList parses a ~10^6-edge random multigraph from
// memory (parse plus Build) and reports the edge rate.
func BenchmarkReadEdgeList(b *testing.B) {
	const m = 1 << 20
	text := edgeListText(b, m, 3)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkReadEdgeBatch parses one append body the size perfbench
// appends (256 edges) and reports the allocation per body.
func BenchmarkReadEdgeBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 1))
	edges := make([]Edge, 256)
	for i := range edges {
		edges[i] = Edge{U: Vertex(rng.IntN(1 << 20)), V: Vertex(rng.IntN(1 << 20))}
	}
	var buf bytes.Buffer
	if err := WriteEdgeBatch(&buf, edges); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeBatch(bytes.NewReader(text), 1<<20, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
