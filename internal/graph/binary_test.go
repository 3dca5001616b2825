package graph

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// buildTestGraphs returns a spread of shapes exercising the codec:
// loops, parallel edges, isolated vertices, empty graphs, and a dense
// block. The gen families themselves round-trip in the cross-package
// property test (internal/gen imports graph, not vice versa), which
// covers every generator family against WriteEdgeList/ReadEdgeList.
func buildTestGraphs() map[string]*Graph {
	out := map[string]*Graph{
		"empty":    NewBuilder(0).Build(),
		"isolated": NewBuilder(5).Build(),
	}
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	out["twocomp"] = b.Build()

	b = NewBuilder(4)
	b.AddEdge(0, 0) // self-loop
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(2, 2)
	b.AddEdge(2, 3)
	out["loopy"] = b.Build()

	b = NewBuilderHint(32, 200)
	for u := Vertex(0); u < 32; u++ {
		for v := u; v < 32; v += 3 {
			b.AddEdge(u, v)
		}
	}
	out["dense"] = b.Build()
	return out
}

// sameGraph compares two graphs by their canonical text serialization —
// the strongest available equality (exact edge multiset and counts).
func sameGraph(t *testing.T, a, b *Graph) bool {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := WriteEdgeList(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&bb, b); err != nil {
		t.Fatal(err)
	}
	return ba.String() == bb.String()
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range buildTestGraphs() {
		var bin bytes.Buffer
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded graph invalid: %v", name, err)
		}
		if !sameGraph(t, g, got) {
			t.Errorf("%s: binary round trip changed the graph", name)
		}
		// Re-encoding the decode must be byte-identical: the encoder
		// walks the canonical CSR order, which Build reconstructs.
		var again bytes.Buffer
		if err := WriteBinary(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), again.Bytes()) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

// TestBinaryMatchesTextCodec is the cross-codec property: for every test
// graph, text-encode/decode and binary-encode/decode agree, and the
// binary form is smaller whenever there are enough edges to matter.
func TestBinaryMatchesTextCodec(t *testing.T) {
	for name, g := range buildTestGraphs() {
		var txt, bin bytes.Buffer
		if err := WriteEdgeList(&txt, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatal(err)
		}
		fromTxt, err := ReadEdgeList(bytes.NewReader(txt.Bytes()))
		if err != nil {
			t.Fatalf("%s: text decode: %v", name, err)
		}
		fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: binary decode: %v", name, err)
		}
		if !sameGraph(t, fromTxt, fromBin) {
			t.Errorf("%s: text and binary decodes disagree", name)
		}
		if g.M() >= 4 && bin.Len() >= txt.Len() {
			t.Errorf("%s: binary (%d bytes) not smaller than text (%d bytes)", name, bin.Len(), txt.Len())
		}
	}
}

func TestBinaryTruncation(t *testing.T) {
	g := buildTestGraphs()["dense"]
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	full := bin.Bytes()
	// Every strict prefix must fail cleanly — never panic, never
	// succeed (the header promises more edges than the bytes carry).
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":  []byte("NOPE1\nxxxx"),
		"text input": []byte("3 2\n0 1\n1 2\n"),
		"empty":      nil,
		"magic only": []byte(binaryMagic),
		"huge n":     append([]byte(binaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"edge oob":   append([]byte(binaryMagic), 2, 1, 5, 0), // n=2 m=1, du=5 → u=5 out of range
		"negative v": append([]byte(binaryMagic), 3, 1, 0, 1), // n=3 m=1, dv zigzag 1 → v=-1
		"overflow varint": append([]byte(binaryMagic),
			3, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryLimits(t *testing.T) {
	g := buildTestGraphs()["dense"]
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(bin.Bytes()), g.N()-1, 0); err == nil {
		t.Error("vertex limit below n accepted")
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(bin.Bytes()), 0, g.M()-1); err == nil {
		t.Error("edge limit below m accepted")
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(bin.Bytes()), g.N(), g.M()); err != nil {
		t.Errorf("exact limits rejected: %v", err)
	}
	// A declared-huge edge count must be rejected by the limit before
	// the decode loop starts demanding bytes.
	hdr := append([]byte(binaryMagic), 3)
	hdr = append(hdr, 0xff, 0xff, 0xff, 0x7f) // m ≈ 2^28
	if _, err := ReadBinaryLimit(bytes.NewReader(hdr), 0, 1000); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("huge m not rejected by limit: %v", err)
	}
}

// TestBinaryExactConsumption: when the reader supports io.ByteReader,
// the decode must consume exactly the encoded graph so framed formats
// (internal/store snapshots) can parse trailing data.
func TestBinaryExactConsumption(t *testing.T) {
	g := buildTestGraphs()["twocomp"]
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	trailer := []byte("TRAILER")
	r := bytes.NewReader(append(bin.Bytes(), trailer...))
	if _, err := ReadBinary(r); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, trailer) {
		t.Errorf("decode over-consumed: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}
