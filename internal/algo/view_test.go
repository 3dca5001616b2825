package algo

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// preadSource hides the backing bytes of a WCCM1 image, so the mapped
// graph decodes every Neighbors call with a positioned read — the path
// a snapshot takes when mmap is unavailable.
type preadSource struct{ s graph.MappedSource }

func (p preadSource) ReadAt(b []byte, off int64) (int, error) { return p.s.ReadAt(b, off) }
func (p preadSource) Bytes() []byte                           { return nil }
func (p preadSource) Size() int64                             { return p.s.Size() }

// sameResult fails unless two results agree on every algorithm-
// independent field, bit for bit.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Labels, want.Labels) || got.Components != want.Components ||
		got.Rounds != want.Rounds || got.PeakEdges != want.PeakEdges {
		t.Fatalf("%s: components=%d rounds=%d peak=%d, want components=%d rounds=%d peak=%d (labels equal: %v)",
			what, got.Components, got.Rounds, got.PeakEdges,
			want.Components, want.Rounds, want.PeakEdges, slices.Equal(got.Labels, want.Labels))
	}
}

// TestFindSameOnEveryView is the differential contract of the View
// signature: every registered algorithm returns the identical Labels,
// Components, Rounds and PeakEdges on an in-RAM *graph.Graph, on its
// WCCM1 MappedGraph (byte-backed and pread), and — for base ∪ batch —
// on an Overlay of the batch over each of those bases. The batch grows
// the vertex set, repeats a base edge and adds a self-loop, so the
// overlay's merge and the loop-halving convention are both exercised.
func TestFindSameOnEveryView(t *testing.T) {
	specs := []gen.Spec{
		{Family: "union", Sizes: []int{28, 20, 12}, D: 6, Seed: 101},
		{Family: "gnd", N: 72, D: 3, Seed: 303},
	}
	for _, spec := range specs {
		base, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := base.N() + 3
		batch := []graph.Edge{{U: 0, V: graph.Vertex(n - 1)}, {U: 5, V: 5}, base.Edges()[0], {U: 1, V: graph.Vertex(base.N() - 1)}}
		merged := graph.FromEdges(n, append(base.Edges(), batch...))
		var enc bytes.Buffer
		if err := graph.WriteMapped(&enc, base); err != nil {
			t.Fatal(err)
		}
		mapped, err := graph.OpenMappedSource(graph.NewBytesSource(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		pread, err := graph.OpenMappedSource(preadSource{graph.NewBytesSource(enc.Bytes())})
		if err != nil {
			t.Fatal(err)
		}
		bases := map[string]graph.View{"csr": base, "mapped": mapped, "pread": pread}
		for _, name := range Names() {
			opts := Options{Seed: 9, Lambda: 0.3}
			want, err := Find(name, base, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantMerged, err := Find(name, merged, opts)
			if err != nil {
				t.Fatal(err)
			}
			for bn, bv := range bases {
				got, err := Find(name, bv, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, spec.Family+"/"+name+"/"+bn, got, want)
				got, err = Find(name, graph.NewOverlay(bv, n, batch), opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, spec.Family+"/"+name+"/overlay-on-"+bn, got, wantMerged)
			}
		}
	}
}

// TestReadsOfCoversEveryOptionThatMatters checks ReadsOf against the
// algorithms themselves: changing any option an algorithm does not
// declare — Workers always, and Seed, λ or Memory when absent from its
// Reads — must leave the whole result unchanged, since the service
// shares one cached labeling across exactly those changes. Canonical
// must then map both option sets to one value.
func TestReadsOfCoversEveryOptionThatMatters(t *testing.T) {
	g, err := gen.Spec{Family: "union", Sizes: []int{30, 18}, D: 6, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 3, Lambda: 0.3, Memory: 40, Workers: 1}
	variants := []struct {
		field string
		bit   Reads
		apply func(*Options)
	}{
		{"workers", 0, func(o *Options) { o.Workers = 4 }},
		{"seed", ReadsSeed, func(o *Options) { o.Seed = 1 << 33 }},
		{"lambda", ReadsLambda, func(o *Options) { o.Lambda = 0 }},
		{"memory", ReadsMemory, func(o *Options) { o.Memory = 24 }},
	}
	for _, name := range Names() {
		reads := ReadsOf(name)
		want, err := Find(name, g, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, vr := range variants {
			if vr.bit != 0 && reads&vr.bit != 0 {
				continue
			}
			o := base
			vr.apply(&o)
			got, err := Find(name, g, o)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name+" with "+vr.field+" changed", got, want)
			if reads.Canonical(o) != reads.Canonical(base) {
				t.Fatalf("%s: Canonical keeps %s, which %s does not read", name, vr.field, name)
			}
		}
	}
}
