package store

import (
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
	return openDisk(t, dir, Config{RetainVersions: 3, SyncCompaction: true})
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
	want, err := s.Materialize(m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := DigestGraph(want)
	s.Close()

	s = openMappedDisk(t, dir)
	g, err := s.Materialize(m.ID, 0)
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
	tip, err := s.Materialize(m.ID, vers[len(vers)-1].Version)
	if err != nil {
		t.Fatal(err)
	}
	tipDigest := DigestGraph(tip)
	s.Close()

	s = openMappedDisk(t, dir)
	tip2, err := s.Materialize(m.ID, vers[len(vers)-1].Version)
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

// TestStoreViewMatchesMaterialize runs on every backend and residency: for each
// retained version, the View (snapshot view or overlay) must describe
// exactly the graph Materialize builds — same digest, same counts.
func TestStoreViewMatchesMaterialize(t *testing.T) {
	backends := map[string]func(t *testing.T) Store{
		"memory": func(t *testing.T) Store {
			s := NewMemory(Config{RetainVersions: 4})
			t.Cleanup(func() { s.Close() })
			return s
		},
		"disk-mapped": func(t *testing.T) Store {
			return openDiskCleanup(t, t.TempDir(), Config{RetainVersions: 4, SyncCompaction: true})
		},
		"disk-pread": func(t *testing.T) Store {
			return openDiskCleanup(t, t.TempDir(), Config{RetainVersions: 4, SyncCompaction: true, FS: fault.OS{NoMmap: true}})
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			m := putGraph(t, s, 10)
			appendBatch(t, s, m.ID, []graph.Edge{{U: 0, V: 5}})
			appendBatch(t, s, m.ID, []graph.Edge{{U: 2, V: 7}, {U: 3, V: 3}})
			vers, err := s.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, ver := range vers {
				want, err := s.Materialize(m.ID, ver.Version)
				if err != nil {
					t.Fatal(err)
				}
				v, release, err := s.View(m.ID, ver.Version)
				if err != nil {
					t.Fatalf("View(%d): %v", ver.Version, err)
				}
				if v.NumVertices() != want.N() || v.NumEdges() != want.M() {
					t.Fatalf("version %d: view (%d,%d), want (%d,%d)",
						ver.Version, v.NumVertices(), v.NumEdges(), want.N(), want.M())
				}
				if got, wantD := DigestView(v), DigestGraph(want); got != wantD {
					t.Fatalf("version %d: view digest %s, want %s", ver.Version, got[:12], wantD[:12])
				}
				release()
			}
			// A version outside the lineage fails cleanly.
			if _, _, err := s.View(m.ID, 99); err == nil {
				t.Fatal("View of unknown version succeeded")
			}
		})
	}
}
