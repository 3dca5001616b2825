package graph

import (
	"bytes"
	"slices"
	"testing"
)

// preadSource hides the backing bytes so OpenMappedSource takes the
// positioned-read fallback — the path a Mapping serves when mmap is
// unavailable (fault.OS{NoMmap: true}).
type preadSource struct{ s MappedSource }

func (p preadSource) ReadAt(b []byte, off int64) (int, error) { return p.s.ReadAt(b, off) }
func (p preadSource) Bytes() []byte                           { return nil }
func (p preadSource) Size() int64                             { return p.s.Size() }

func encodeMapped(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatalf("WriteMapped: %v", err)
	}
	return buf.Bytes()
}

func TestMappedRoundTrip(t *testing.T) {
	for name, g := range buildTestGraphs() {
		enc := encodeMapped(t, g)
		got, err := ReadMapped(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded graph invalid: %v", name, err)
		}
		if !sameGraph(t, g, got) {
			t.Errorf("%s: mapped round trip changed the graph", name)
		}
		// Re-encoding the decode must be byte-identical: the format is
		// canonical (sorted CSR, fixed layout, no encoder freedom).
		again := encodeMapped(t, got)
		if !bytes.Equal(enc, again) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

// TestMappedMatchesBinaryCodec is the cross-format property: decoding
// the same graph through WCCB1 and WCCM1 yields identical graphs.
func TestMappedMatchesBinaryCodec(t *testing.T) {
	for name, g := range buildTestGraphs() {
		var bin bytes.Buffer
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatal(err)
		}
		fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: binary decode: %v", name, err)
		}
		fromMap, err := ReadMapped(bytes.NewReader(encodeMapped(t, g)))
		if err != nil {
			t.Fatalf("%s: mapped decode: %v", name, err)
		}
		if !sameGraph(t, fromBin, fromMap) {
			t.Errorf("%s: binary and mapped decodes disagree", name)
		}
	}
}

// TestMappedViewEquality: the out-of-core view must report exactly the
// structure of the in-RAM graph it encodes — sizes, degrees, adjacency,
// edge stream — in both the zero-copy and the pread mode.
func TestMappedViewEquality(t *testing.T) {
	for name, g := range buildTestGraphs() {
		enc := encodeMapped(t, g)
		for _, mode := range []string{"bytes", "pread"} {
			var src MappedSource = NewBytesSource(enc)
			if mode == "pread" {
				src = preadSource{src}
			}
			mg, err := OpenMappedSource(src)
			if err != nil {
				t.Fatalf("%s/%s: open: %v", name, mode, err)
			}
			if mode == "pread" && mg.Mapped() {
				t.Fatalf("%s: pread source took the mmap path", name)
			}
			if mg.NumVertices() != g.N() || mg.NumEdges() != g.M() {
				t.Fatalf("%s/%s: size (%d,%d), want (%d,%d)",
					name, mode, mg.NumVertices(), mg.NumEdges(), g.N(), g.M())
			}
			var buf []Vertex
			for v := Vertex(0); v < Vertex(g.N()); v++ {
				d := mg.Degree(v)
				if d != g.Degree(v) {
					t.Fatalf("%s/%s: degree(%d)=%d, want %d", name, mode, v, d, g.Degree(v))
				}
				if cap(buf) < d {
					buf = make([]Vertex, d)
				}
				got := mg.Neighbors(v, buf[:0])
				want := g.Neighbors(v, nil)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: neighbors(%d) len %d, want %d", name, mode, v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: neighbors(%d)[%d]=%d, want %d", name, mode, v, i, got[i], want[i])
					}
				}
			}
			if !sameGraph(t, g, MaterializeView(mg)) {
				t.Errorf("%s/%s: materialized view differs", name, mode)
			}
		}
	}
}

// TestMappedTruncation: every strict prefix must fail cleanly — the
// header's fileSize pins the exact length, so a torn write can never
// parse.
func TestMappedTruncation(t *testing.T) {
	full := encodeMapped(t, buildTestGraphs()["dense"])
	step := 1
	if testing.Short() {
		step = 37
	}
	for cut := 0; cut < len(full); cut += step {
		if _, err := OpenMappedSource(NewBytesSource(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// TestMappedCorruption flips every byte of a valid image and requires
// the open to fail: the three trailer digests cover the header page,
// the adjacency section, and the offsets section, and the trailer is
// itself what they are compared against — no byte is outside the net.
func TestMappedCorruption(t *testing.T) {
	full := encodeMapped(t, buildTestGraphs()["dense"])
	step := 1
	if testing.Short() {
		step = 41
	}
	mut := make([]byte, len(full))
	for i := 0; i < len(full); i += step {
		copy(mut, full)
		mut[i] ^= 0x5a
		if _, err := OpenMappedSource(NewBytesSource(mut)); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(full))
		}
	}
}

func TestMappedWriterValidation(t *testing.T) {
	if _, err := NewMappedWriter(&bytes.Buffer{}, -1, 0, nil); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewMappedWriter(&bytes.Buffer{}, 1, -1, nil); err == nil {
		t.Error("negative m accepted")
	}
	if _, err := NewMappedWriter(&bytes.Buffer{}, 1, 0, make([]byte, MappedMetaLimit+1)); err == nil {
		t.Error("oversized meta accepted")
	}

	mw, err := NewMappedWriter(&bytes.Buffer{}, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.AddVertex([]Vertex{2, 1}); err == nil {
		t.Error("unsorted adjacency accepted")
	}
	if err := mw.AddVertex([]Vertex{3}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}

	// Close must refuse when the declared counts were not delivered.
	mw, err = NewMappedWriter(&bytes.Buffer{}, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.AddVertex(nil); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err == nil {
		t.Error("close with missing vertices accepted")
	}
}

// TestWriteMappedView: encoding base+delta through WriteMappedView must
// equal encoding the materialized merge — the streaming merge path is
// what compaction uses, so it must be bit-faithful.
func TestWriteMappedView(t *testing.T) {
	base := buildTestGraphs()["twocomp"]
	delta := []Edge{{U: 5, V: 0}, {U: 4, V: 4}, {U: 1, V: 3}, {U: 0, V: 1}}
	n := 7 // grows the vertex set past the base

	var stream bytes.Buffer
	meta := []byte(`{"id":"t"}`)
	if err := WriteMappedView(&stream, base, n, delta, meta); err != nil {
		t.Fatal(err)
	}

	b := NewBuilder(n)
	ForEachEdgeView(base, func(e Edge) { b.AddEdge(e.U, e.V) })
	for _, e := range delta {
		b.AddEdge(e.U, e.V)
	}
	merged := b.Build()
	var direct bytes.Buffer
	if err := WriteMappedView(&direct, merged, n, nil, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), direct.Bytes()) {
		t.Error("streamed base+delta encode differs from materialized encode")
	}

	mg, err := OpenMappedSource(NewBytesSource(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(mg.Meta()); got != string(meta) {
		t.Errorf("meta round trip: %q, want %q", got, meta)
	}
	if !sameGraph(t, merged, MaterializeView(mg)) {
		t.Error("decoded merge differs from materialized merge")
	}
}

// TestMappedReadAuto: the dispatcher must route WCCM1 images by magic.
func TestMappedReadAuto(t *testing.T) {
	g := buildTestGraphs()["twocomp"]
	got, err := ReadAuto(bytes.NewReader(encodeMapped(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(t, g, got) {
		t.Error("ReadAuto(mapped) changed the graph")
	}
}

// FuzzReadMapped: the WCCM1 opener must never panic, and anything it
// accepts must materialize to a graph passing Validate and re-encode to
// the identical bytes (the format is canonical).
func FuzzReadMapped(f *testing.F) {
	for name, g := range map[string]*Graph{
		"twocomp": func() *Graph {
			b := NewBuilder(6)
			b.AddEdge(0, 1)
			b.AddEdge(1, 2)
			b.AddEdge(3, 4)
			return b.Build()
		}(),
		"loopy": func() *Graph {
			b := NewBuilder(3)
			b.AddEdge(0, 0)
			b.AddEdge(1, 2)
			return b.Build()
		}(),
		"empty": NewBuilder(0).Build(),
	} {
		var buf bytes.Buffer
		if err := WriteMapped(&buf, g); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1]) // torn tail
	}
	f.Add([]byte(mappedMagic))
	f.Add([]byte("WCCM1\n\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		g, err := ReadMapped(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var again bytes.Buffer
		if err := WriteMapped(&again, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data[:again.Len()], again.Bytes()) {
			t.Fatal("accepted non-canonical image")
		}
	})
}

// BenchmarkMappedNeighbors measures the hot read path in both modes.
func BenchmarkMappedNeighbors(b *testing.B) {
	g := func() *Graph {
		bl := NewBuilderHint(1024, 8192)
		for u := Vertex(0); u < 1024; u++ {
			for k := Vertex(1); k <= 8; k++ {
				bl.AddEdge(u, (u+k*37)%1024)
			}
		}
		return bl.Build()
	}()
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"bytes", "pread"} {
		var src MappedSource = NewBytesSource(buf.Bytes())
		if mode == "pread" {
			src = preadSource{src}
		}
		mg, err := OpenMappedSource(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode, func(b *testing.B) {
			scratch := make([]Vertex, 64)
			var sink Vertex
			for i := 0; i < b.N; i++ {
				v := Vertex(i) % 1024
				ns := mg.Neighbors(v, scratch[:0])
				if len(ns) > 0 {
					sink += ns[0]
				}
			}
			_ = sink
		})
	}
}

// TestOverlayCanonicalOrder: an Overlay must scan exactly like the CSR
// rebuilt from base plus delta — every adjacency sorted, so
// ForEachEdgeView (and the digests built on it) cannot tell the two
// apart. Delta neighbors interleave with base ones on both sides, on a
// resident base (shared slices), a mapped base and a pread base
// (decoded into the caller's buffer), with and without a buffer.
func TestOverlayCanonicalOrder(t *testing.T) {
	base := FromEdges(6, []Edge{{U: 0, V: 2}, {U: 0, V: 4}, {U: 1, V: 3}, {U: 3, V: 5}, {U: 2, V: 2}})
	delta := []Edge{{U: 0, V: 5}, {U: 0, V: 1}, {U: 3, V: 3}, {U: 6, V: 0}, {U: 4, V: 2}, {U: 0, V: 3}}
	n := 7
	b := NewBuilder(n)
	ForEachEdgeView(base, func(e Edge) { b.AddEdge(e.U, e.V) })
	for _, e := range delta {
		b.AddEdge(e.U, e.V)
	}
	want := b.Build()
	var wantEdges []Edge
	want.ForEachEdge(func(e Edge) { wantEdges = append(wantEdges, e) })

	enc := encodeMapped(t, base)
	mapped, err := OpenMappedSource(NewBytesSource(enc))
	if err != nil {
		t.Fatal(err)
	}
	pread, err := OpenMappedSource(preadSource{NewBytesSource(enc)})
	if err != nil {
		t.Fatal(err)
	}
	for name, bv := range map[string]View{"resident": base, "mapped": mapped, "pread": pread} {
		ov := NewOverlay(bv, n, delta)
		for v := Vertex(0); int(v) < n; v++ {
			for _, buf := range [][]Vertex{nil, make([]Vertex, 0, ov.Degree(v))} {
				got := ov.Neighbors(v, buf)
				if w := want.Neighbors(v, nil); !slices.Equal(got, w) {
					t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, v, got, w)
				}
			}
		}
		var gotEdges []Edge
		ForEachEdgeView(ov, func(e Edge) { gotEdges = append(gotEdges, e) })
		if !slices.Equal(gotEdges, wantEdges) {
			t.Fatalf("%s: scanned %v, want %v", name, gotEdges, wantEdges)
		}
	}
}
