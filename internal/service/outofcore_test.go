package service

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// newDurableService opens a service on the durable backend, whose
// every snapshot is a WCCM1 mapping: view-capable solves run off the
// mapped pages instead of a materialized CSR.
func newDurableService(t *testing.T) *Service {
	t.Helper()
	s := openDurable(t, t.TempDir())
	t.Cleanup(s.Close)
	return s
}

// TestOutOfCoreSolveMatchesInRAM is the service-level bit-equality
// contract between the backends: the durable one solves off the
// snapshot mapping (an Overlay of it after appends), the memory one
// off the resident CSR, and both must produce the identical labeling —
// same labels, sizes and histogram — for the base version and for a
// post-append version, with and without a view path.
func TestOutOfCoreSolveMatchesInRAM(t *testing.T) {
	spec := gen.Spec{Family: "union", Sizes: []int{40, 30, 20, 12}, D: 4, Seed: 5}
	batch := []graph.Edge{{U: 0, V: 50}, {U: 70, V: 101}, {U: 2, V: 2}}
	var got [2][]*Labeling
	var wantTip int
	for i, s := range []*Service{newDurableService(t), newTestService(t)} {
		sg, err := s.Generate("u", spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(sg.ID, batch, false); err != nil {
			t.Fatal(err)
		}
		// Tip first: solved after version 0, the tip would be a
		// fast-forward of the version-0 labeling instead of a solve.
		for _, solve := range []SolveSpec{
			{GraphID: sg.ID, Version: -1, Algo: "parallel"},
			{GraphID: sg.ID, Version: 0, Algo: "parallel"},
			{GraphID: sg.ID, Version: 0, Algo: "hashtomin"},
		} {
			l, err := s.Solve(solve)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], l)
		}
		if n := s.Counters().Solves; n != 3 {
			t.Fatalf("%d solves ran, want 3 (one per labeling compared)", n)
		}
		tip, err := sg.Graph()
		if err != nil {
			t.Fatal(err)
		}
		_, wantTip = graph.Components(tip)
	}
	for k, durable := range got[0] {
		mem := got[1][k]
		if durable.Version != mem.Version || durable.Algo != mem.Algo {
			t.Fatalf("labeling %d: durable %s@%d vs memory %s@%d", k, durable.Algo, durable.Version, mem.Algo, mem.Version)
		}
		if durable.Components != mem.Components ||
			!slices.Equal(durable.labels, mem.labels) ||
			!slices.Equal(durable.sizes, mem.sizes) ||
			!slices.Equal(durable.hist, mem.hist) {
			t.Fatalf("%s@%d: durable backend labeling differs from the memory backend's (%d vs %d components)",
				durable.Algo, durable.Version, durable.Components, mem.Components)
		}
	}
	if tip := got[0][0]; tip.Components != wantTip {
		t.Fatalf("appended version solved to %d components, BFS finds %d", tip.Components, wantTip)
	}
}

// TestOutOfCoreSolveLatestVersion: the durable solve must also serve
// post-append versions (an Overlay over the mapped base).
func TestOutOfCoreSolveLatestVersion(t *testing.T) {
	s := newDurableService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	// Bridge the two components; the solve of the new version must see it.
	if _, err := s.Append(sg.ID, []graph.Edge{{U: 0, V: 9}}, false); err != nil {
		t.Fatal(err)
	}
	l, err := s.Solve(SolveSpec{GraphID: sg.ID, Version: -1, Algo: "parallel", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Components != 1 {
		t.Fatalf("bridged graph solved to %d components, want 1", l.Components)
	}
	same, err := l.SameComponent(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("appended bridge not visible to the mapped solve")
	}
}

// TestOutOfCoreNonViewAlgo: algorithms without a view path must keep
// working on the durable backend — they materialize as before.
func TestOutOfCoreNonViewAlgo(t *testing.T) {
	s := newDurableService(t)
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Solve(SolveSpec{GraphID: sg.ID, Algo: "wcc", Lambda: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Components != 2 {
		t.Fatalf("wcc on the durable backend found %d components, want 2", l.Components)
	}
}
