// Cross-package codec property test: every gen.Spec family must
// round-trip identically through the text and the binary codec, and its
// binary encoding must be smaller than its text one (WCCB1's reason to
// exist beside the edge list and WCCM1). It lives in the external
// graph_test package because internal/gen imports internal/graph.
package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBinaryRoundTripAllGenFamilies(t *testing.T) {
	specs := []gen.Spec{
		{Family: "expander", N: 128, D: 8, Seed: 1},
		{Family: "gnd", N: 96, D: 6, Seed: 2},
		{Family: "gnd", N: 20000, D: 8, Seed: 1}, // BenchmarkBinaryCodec's workload
		{Family: "cycle", N: 64},
		{Family: "path", N: 50},
		{Family: "grid", N: 6, D: 7},
		{Family: "clique", N: 16},
		{Family: "star", N: 33},
		{Family: "hypercube", N: 5},
		{Family: "ringofcliques", N: 8, D: 5},
		{Family: "bridged", N: 40, D: 4, Seed: 3},
		{Family: "union", D: 6, Sizes: []int{30, 20, 14}, Seed: 4},
	}
	for _, spec := range specs {
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", spec.Family, err)
		}
		var txt, bin bytes.Buffer
		if err := graph.WriteEdgeList(&txt, g); err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteBinary(&bin, g); err != nil {
			t.Fatal(err)
		}
		fromTxt, err := graph.ReadEdgeList(bytes.NewReader(txt.Bytes()))
		if err != nil {
			t.Fatalf("%s: text decode: %v", spec.Family, err)
		}
		fromBin, err := graph.ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: binary decode: %v", spec.Family, err)
		}
		// Decodes of both formats must describe the same edge multiset:
		// their canonical text serializations are byte-equal.
		var a, b bytes.Buffer
		if err := graph.WriteEdgeList(&a, fromTxt); err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteEdgeList(&b, fromBin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: text and binary decodes disagree", spec.Family)
		}
		if g.M() > 0 && bin.Len() >= txt.Len() {
			t.Errorf("%s: binary %d bytes, text %d bytes — binary should be smaller",
				spec.Family, bin.Len(), txt.Len())
		}
	}
}
