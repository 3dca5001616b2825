package service

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// newDurableService opens a service on the durable backend, whose
// every snapshot is a WCCM1 mapping: every solve reads the mapped pages
// (scanned in place, or materialized by the simulated algorithms).
func newDurableService(t *testing.T) *Service {
	t.Helper()
	s := openDurable(t, t.TempDir())
	t.Cleanup(s.Close)
	return s
}

// realAlgos lists the registered algorithms minus the "test-" ones
// that other tests in this package register.
func realAlgos() []string {
	var names []string
	for _, name := range algo.Names() {
		if !strings.HasPrefix(name, "test-") {
			names = append(names, name)
		}
	}
	return names
}

// TestOutOfCoreSolveMatchesInRAM is the service-level bit-equality
// contract between the backends: the durable one solves off the
// snapshot mapping (an Overlay of it after appends), the memory one
// off the resident CSR, and every registered algorithm must produce the
// identical labeling on both — same labels, sizes, histogram, rounds
// and peak edges — for the base version and for a post-append version.
func TestOutOfCoreSolveMatchesInRAM(t *testing.T) {
	spec := gen.Spec{Family: "union", Sizes: []int{40, 30, 20, 12}, D: 4, Seed: 5}
	batch := []graph.Edge{{U: 0, V: 50}, {U: 70, V: 101}, {U: 2, V: 2}}
	names := realAlgos()
	mem := New(Config{JobWorkers: 1})
	t.Cleanup(mem.Close)
	var got [2][]*Labeling
	var wantTip int
	for i, s := range []*Service{newDurableService(t), mem} {
		sg, err := s.Generate("u", spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(sg.ID, batch, false); err != nil {
			t.Fatal(err)
		}
		// Tip first: solved after version 0, the tip would be a
		// fast-forward of the version-0 labeling instead of a solve.
		for _, name := range names {
			for _, version := range []int{-1, 0} {
				l, err := s.Solve(SolveSpec{GraphID: sg.ID, Version: version, Algo: name, Seed: 4, Lambda: 0.3})
				if err != nil {
					t.Fatal(err)
				}
				got[i] = append(got[i], l)
			}
		}
		if n := s.Counters().Solves; n != int64(2*len(names)) {
			t.Fatalf("%d solves ran, want %d (one per labeling compared)", n, 2*len(names))
		}
		tip := materialize(t, sg, sg.LatestVersion())
		_, wantTip = graph.Components(tip)
	}
	for k, durable := range got[0] {
		mem := got[1][k]
		if durable.Version != mem.Version || durable.Algo != mem.Algo {
			t.Fatalf("labeling %d: durable %s@%d vs memory %s@%d", k, durable.Algo, durable.Version, mem.Algo, mem.Version)
		}
		if durable.Components != mem.Components ||
			durable.Rounds != mem.Rounds || durable.PeakEdges != mem.PeakEdges ||
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

// TestOutOfCoreNonViewAlgo: the simulated algorithms, which do not scan
// a view in place, must keep working on the durable backend — they
// materialize the mapped view for the length of the solve.
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
