package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// TestDiskConformanceMapped: the full behavioral conformance suite must
// also hold when every snapshot mapping is served by positioned reads
// (fault.OS{NoMmap: true}) — the fallback a platform without mmap
// takes. The two residencies of a mapped snapshot are interchangeable
// from above.
func TestDiskConformanceMapped(t *testing.T) {
	runConformance(t, func(t *testing.T, cfg Config) Store {
		cfg.FS = fault.OS{NoMmap: true}
		return openDiskCleanup(t, t.TempDir(), cfg)
	}, reopenDisk)
}

func openMappedDisk(t *testing.T, dir string) *Disk {
	t.Helper()
	return openDisk(t, dir, Config{RetainVersions: 3})
}

// TestDiskMappedSnapshotLifecycle walks the whole snapshot life: Put
// writes snapshot.map, a reopen serves the identical lineage off the
// mapping, compaction rewrites the WCCM1 file by streaming (base view +
// WAL prefix) and advances its version, and a corrupted mapping is a
// hard open error.
func TestDiskMappedSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openMappedDisk(t, dir)
	m := putGraph(t, s, 8)
	gdir := filepath.Join(dir, m.ID)
	if !rawExists(t, filepath.Join(gdir, mapFile)) {
		t.Fatal("Put did not write snapshot.map")
	}
	want, err := materialize(s, m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := DigestGraph(want)
	s.Close()

	s = openMappedDisk(t, dir)
	g, err := materialize(s, m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if DigestGraph(g) != wantDigest {
		t.Fatal("reopened mapped snapshot materializes differently")
	}

	// Six appends cross RetainVersions=3: synchronous compaction must
	// rebase the WCCM1 snapshot.
	for i := 0; i < 6; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vers[0].Version == 0 {
		t.Fatal("compaction never rebased the mapped snapshot")
	}
	tip, err := materialize(s, m.ID, vers[len(vers)-1].Version)
	if err != nil {
		t.Fatal(err)
	}
	tipDigest := DigestGraph(tip)
	s.Close()

	s = openMappedDisk(t, dir)
	tip2, err := materialize(s, m.ID, vers[len(vers)-1].Version)
	if err != nil {
		t.Fatal(err)
	}
	if DigestGraph(tip2) != tipDigest {
		t.Fatal("compacted mapped snapshot reopened differently")
	}
	s.Close()

	// Any corruption of the mapping must refuse to open (all three
	// sections are digest-covered).
	data := rawReadFile(t, filepath.Join(gdir, mapFile))
	data[len(data)/2] ^= 0x01
	rawWriteFile(t, filepath.Join(gdir, mapFile), data)
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("open accepted a corrupt snapshot.map")
	}
}

// TestDiskViewOutlivesEviction is the refcount contract: a view pinned
// before an eviction keeps its pages mapped (reading through it is
// safe), the eviction itself proceeds, and new View calls fail cleanly
// with ErrNotFound instead of touching unmapped memory.
func TestDiskViewOutlivesEviction(t *testing.T) {
	dir := t.TempDir()
	s := openMappedDisk(t, dir)
	defer s.Close()
	m := putGraph(t, s, 64)

	v, release, err := s.View(m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	mg, ok := v.(*graph.MappedGraph)
	if !ok {
		t.Fatalf("snapshot view is %T, want *graph.MappedGraph", v)
	}
	if !s.Evict(m.ID) {
		t.Fatal("evict failed")
	}
	// The pin must keep every page readable after the eviction unlinked
	// and logically dropped the graph.
	var buf []graph.Vertex
	edges := 0
	for u := 0; u < mg.NumVertices(); u++ {
		uv := graph.Vertex(u)
		if cap(buf) < mg.Degree(uv) {
			buf = make([]graph.Vertex, mg.Degree(uv))
		}
		edges += len(mg.Neighbors(uv, buf[:0]))
	}
	if edges != 2*m.M {
		t.Fatalf("post-evict read saw %d half-edges, want %d", edges, 2*m.M)
	}
	release()

	if _, _, err := s.View(m.ID, 0); err == nil {
		t.Fatal("View of an evicted graph succeeded")
	}
}

// TestStoreViewMatchesMaterialize runs on every backend and residency:
// for each retained version, the View (the snapshot itself or an
// overlay on it) must describe exactly the graph the test builds on its
// own with graph.NewBuilder from the base edges and every batch
// appended up to that version — same digest, same counts. Two of the
// batches grow the vertex set, one before and one after the compaction
// at the sixth append, and every retained version is checked after
// each append, after that compaction and after a reopen.
func TestStoreViewMatchesMaterialize(t *testing.T) {
	const retain = 3
	backends := map[string]struct {
		open   func(t *testing.T) Store
		reopen func(t *testing.T, s Store) Store
	}{
		"memory": {func(t *testing.T) Store {
			s := NewMemory(Config{RetainVersions: retain})
			t.Cleanup(func() { s.Close() })
			return s
		}, func(t *testing.T, s Store) Store { return s }},
		"disk-mapped": {func(t *testing.T) Store {
			return openDiskCleanup(t, t.TempDir(), Config{RetainVersions: retain})
		}, reopenDisk},
		"disk-pread": {func(t *testing.T) Store {
			return openDiskCleanup(t, t.TempDir(), Config{RetainVersions: retain, FS: fault.OS{NoMmap: true}})
		}, reopenDisk},
	}
	// Each batch with the vertex count of the version it makes.
	batches := []struct {
		n     int
		edges []graph.Edge
	}{
		{10, []graph.Edge{{U: 0, V: 5}}},
		{10, []graph.Edge{{U: 2, V: 7}, {U: 3, V: 3}}},
		{12, []graph.Edge{{U: 10, V: 4}, {U: 11, V: 11}}},
		{12, []graph.Edge{{U: 1, V: 11}}},
		{12, []graph.Edge{{U: 6, V: 9}, {U: 0, V: 5}}},
		{12, []graph.Edge{{U: 11, V: 0}}},
		{14, []graph.Edge{{U: 13, V: 2}}},
	}
	// want builds version v from scratch: the base path plus batches
	// 1..v, on version v's vertex count.
	want := func(v int) *graph.Graph {
		n := 10
		if v > 0 {
			n = batches[v-1].n
		}
		b := graph.NewBuilder(n)
		for i := 0; i < 9; i++ {
			b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
		}
		for _, batch := range batches[:v] {
			for _, e := range batch.edges {
				b.AddEdge(e.U, e.V)
			}
		}
		return b.Build()
	}
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			s := be.open(t)
			m := putGraph(t, s, 10)
			check := func(label string) {
				t.Helper()
				vers, err := s.Versions(m.ID)
				if err != nil {
					t.Fatal(err)
				}
				for _, ver := range vers {
					w := want(ver.Version)
					v, release, err := s.View(m.ID, ver.Version)
					if err != nil {
						t.Fatalf("%s: View(%d): %v", label, ver.Version, err)
					}
					if v.NumVertices() != w.N() || v.NumEdges() != w.M() {
						t.Fatalf("%s: version %d: view (%d,%d), want (%d,%d)",
							label, ver.Version, v.NumVertices(), v.NumEdges(), w.N(), w.M())
					}
					if got, wantD := DigestView(v), DigestGraph(w); got != wantD {
						t.Fatalf("%s: version %d: view digest %s, want %s", label, ver.Version, got[:12], wantD[:12])
					}
					release()
				}
			}
			check("put")
			prev := Version{Digest: m.Digest, N: m.N, M: m.M}
			for i, batch := range batches {
				v := Version{
					Version:  i + 1,
					Digest:   ChainDigest(prev.Digest, batch.n, batch.edges),
					N:        batch.n,
					M:        prev.M + len(batch.edges),
					Appended: len(batch.edges),
				}
				if err := s.Append(m.ID, batch.edges, v); err != nil {
					t.Fatal(err)
				}
				prev = v
				check(fmt.Sprintf("append %d", i+1))
			}
			vers, err := s.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if vers[0].Version != len(batches)-retain+1 {
				t.Fatalf("window starts at version %d, want %d", vers[0].Version, len(batches)-retain+1)
			}
			r := heldRecord(t, s, m.ID)
			r.mu.Lock()
			snap := r.snapVer.Version
			r.mu.Unlock()
			if snap == 0 {
				t.Fatal("no compaction rebased the snapshot")
			}
			s = be.reopen(t, s)
			check("reopened")
			// A version outside the lineage fails cleanly.
			if _, _, err := s.View(m.ID, 99); err == nil {
				t.Fatal("View of unknown version succeeded")
			}
		})
	}
}
