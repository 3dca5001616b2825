package store

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// siteLog is a fault.FS that records, in order, the seam sites of the
// operations whose ordering the compaction contract is about: renames
// (named by their target, as fault.Inject names them) and directory
// syncs.
type siteLog struct {
	fault.FS
	mu    sync.Mutex
	sites []string
}

func (l *siteLog) add(site string) {
	l.mu.Lock()
	l.sites = append(l.sites, site)
	l.mu.Unlock()
}

func (l *siteLog) Rename(oldpath, newpath string) error {
	l.add("rename:" + filepath.Base(newpath))
	return l.FS.Rename(oldpath, newpath)
}

func (l *siteLog) SyncDir(path string) error {
	l.add("syncdir")
	return l.FS.SyncDir(path)
}

// take returns the sites logged so far and clears the log.
func (l *siteLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sites
	l.sites = nil
	return out
}

// TestCompactionSyncsSnapshotRenameBeforeWAL pins compaction's crash
// ordering: the snapshot rename is made durable (a directory sync)
// before the WAL rename. Without it, a power loss that kept only the
// second rename would leave the old snapshot beside a WAL that starts
// past its version — a gap Open refuses, with the folded batches gone.
func TestCompactionSyncsSnapshotRenameBeforeWAL(t *testing.T) {
	const w = 2
	trace := &siteLog{FS: fault.OS{}}
	s := openDisk(t, t.TempDir(), Config{RetainVersions: w, SyncCompaction: true, FS: trace})
	defer s.Close()
	m := putGraph(t, s, 8)
	// 2w appends reach the trigger; the last one runs the compaction.
	for i := 0; i < 2*w-1; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	trace.take()
	appendBatch(t, s, m.ID, []graph.Edge{{U: 5, V: 7}})
	sites := trace.take()
	snap, wal := -1, -1
	for i, site := range sites {
		switch site {
		case "rename:" + mapFile:
			snap = i
		case "rename:" + walFile:
			wal = i
		}
	}
	if snap < 0 || wal < 0 || snap > wal {
		t.Fatalf("compaction sites %v: want rename:%s before rename:%s", sites, mapFile, walFile)
	}
	synced := false
	for _, site := range sites[snap+1 : wal] {
		synced = synced || site == "syncdir"
	}
	if !synced {
		t.Fatalf("compaction sites %v: no syncdir between the snapshot and the WAL rename", sites)
	}
}

// TestCompactionSyncFailureKeepsWAL: when the directory sync after the
// snapshot rename fails, compaction must stop before it rewrites the
// WAL — the new snapshot beside the old WAL is a state Open recovers
// from, a new WAL beside a possibly stale snapshot is not. The record
// keeps its batches, and a reopen serves the same window and graphs.
func TestCompactionSyncFailureKeepsWAL(t *testing.T) {
	const w = 2
	dir := t.TempDir()
	reg := fault.NewRegistry(1)
	s := openDisk(t, dir, Config{RetainVersions: w, SyncCompaction: true, FS: fault.Inject(fault.OS{}, reg)})
	m := putGraph(t, s, 8)
	for i := 0; i < 2*w-1; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	before := reg.Hits()
	reg.Add(fault.Rule{Site: "syncdir", Hit: before["syncdir"] + 1, Kind: fault.KindErr})
	appendBatch(t, s, m.ID, []graph.Edge{{U: 5, V: 7}})
	after := reg.Hits()
	if got := after["rename:"+mapFile] - before["rename:"+mapFile]; got != 1 {
		t.Fatalf("compaction renamed %s %d times, want 1", mapFile, got)
	}
	if got := after["rename:"+walFile] - before["rename:"+walFile]; got != 0 {
		t.Fatalf("WAL renamed %d times after the failed directory sync, want 0", got)
	}
	s.mu.Lock()
	r := s.t.recs[m.ID]
	s.mu.Unlock()
	r.mu.Lock()
	held := len(r.batches)
	r.mu.Unlock()
	if held != 2*w {
		t.Fatalf("record holds %d batches after the failed compaction, want all %d", held, 2*w)
	}
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[int]string)
	for _, v := range vers {
		g, err := materialize(s, m.ID, v.Version)
		if err != nil {
			t.Fatal(err)
		}
		digests[v.Version] = DigestGraph(g)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopen must have taken the new snapshot and skipped the old
	// WAL records it covers.
	s = openDisk(t, dir, Config{RetainVersions: w})
	defer s.Close()
	s.mu.Lock()
	r = s.t.recs[m.ID]
	s.mu.Unlock()
	if r.snapVer.Version != vers[0].Version {
		t.Fatalf("reopened on the snapshot at version %d, want the compacted one at %d", r.snapVer.Version, vers[0].Version)
	}
	checkRetention(t, "reopened", s, m.ID, vers)
	for _, v := range vers {
		g, err := materialize(s, m.ID, v.Version)
		if err != nil {
			t.Fatal(err)
		}
		if DigestGraph(g) != digests[v.Version] {
			t.Fatalf("version %d reopened with a different graph", v.Version)
		}
	}
}

// TestCompactionCadence gates the amortized compaction rule: with a
// retained window of W, 5W appends rebase the snapshot at most once per
// W appends (a return to compacting on every append past the window
// would rebase 4W+1 times), at least once, and the record never holds
// more than 2W batches. The window itself stays exactly W versions.
func TestCompactionCadence(t *testing.T) {
	const w = 4
	reg := fault.NewRegistry(1)
	s := openDisk(t, t.TempDir(), Config{RetainVersions: w, SyncCompaction: true, FS: fault.Inject(fault.OS{}, reg)})
	defer s.Close()
	m := putGraph(t, s, 8)
	afterPut := reg.Hits()["rename:"+mapFile]
	s.mu.Lock()
	r := s.t.recs[m.ID]
	s.mu.Unlock()
	for i := 0; i < 5*w; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i % 8), V: graph.Vertex((i + 3) % 8)}})
		r.mu.Lock()
		held := len(r.batches)
		r.mu.Unlock()
		if held > 2*w {
			t.Fatalf("after append %d the record holds %d batches, want at most 2W=%d", i+1, held, 2*w)
		}
		vers, err := s.Versions(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(i+2, w); len(vers) != want || vers[len(vers)-1].Version != i+1 {
			t.Fatalf("after append %d the window is %+v, want %d versions ending at %d", i+1, vers, want, i+1)
		}
	}
	rebases := reg.Hits()["rename:"+mapFile] - afterPut
	if rebases < 1 || rebases > 5 {
		t.Fatalf("%d appends at RetainVersions=%d rebased the snapshot %d times, want 1..5 (one per W appends)", 5*w, w, rebases)
	}
}

// mapOrder is a fault.FS that numbers every mapping in the order it is
// made (1, 2, ...) and records the numbers in the order they are
// unmapped, so a test can tell which of several snapshot.map mappings
// went away and when.
type mapOrder struct {
	fault.FS
	mu       sync.Mutex
	made     int
	unmapped []int
}

type orderedMapping struct {
	fault.Mapping
	o  *mapOrder
	id int
}

func (o *mapOrder) Map(path string) (fault.Mapping, error) {
	m, err := o.FS.Map(path)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.made++
	return &orderedMapping{Mapping: m, o: o, id: o.made}, nil
}

func (m *orderedMapping) Unmap() error {
	m.o.mu.Lock()
	m.o.unmapped = append(m.o.unmapped, m.id)
	m.o.mu.Unlock()
	return m.Mapping.Unmap()
}

func (o *mapOrder) unmaps() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.unmapped)
}

// TestEvictDuringCompaction pins record's lock rule where eviction and
// a background compaction meet. The compaction is stalled at its WAL
// rename while the graph is evicted, with a view of the tip pinned on
// the old mapping from before. The eviction's directory removal is made
// to fail, so the compaction gets past the rename and reaches its swap
// with the record already gone. Then the pinned view must still read
// the same graph, its mapping must outlive everything but the view's
// own release, and after Close and the release every mapping and every
// wal.log handle must have been released exactly once: the eviction
// drops the old WAL and mapping, the compaction its orphaned new ones.
func TestEvictDuringCompaction(t *testing.T) {
	const w = 2
	reg := fault.NewRegistry(1)
	order := &mapOrder{FS: fault.OS{}}
	s := openDisk(t, t.TempDir(), Config{RetainVersions: w, FS: fault.Inject(order, reg)})
	m := putGraph(t, s, 8)
	for i := 0; i < 2*w-1; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	view, release, err := s.View(m.ID, vers[len(vers)-1].Version)
	if err != nil {
		t.Fatal(err)
	}
	want := DigestView(view)

	// The stall (500ms by default) is the window the eviction lands in.
	reg.Add(fault.Rule{Site: "rename:" + walFile, Hit: 1, Kind: fault.KindStall})
	reg.Add(fault.Rule{Site: "removeall:" + m.ID, Kind: fault.KindErr})
	// The 2w-th append queues the compaction on the background worker.
	appendBatch(t, s, m.ID, []graph.Edge{{U: 5, V: 7}})
	for deadline := time.Now().Add(10 * time.Second); reg.Hits()["rename:"+walFile] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the compaction never reached its WAL rename")
		}
	}
	if !s.Evict(m.ID) {
		t.Fatal("evict reported absent")
	}
	// Close waits for the stalled compaction to finish.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Hits(); hits["map:"+mapFile] != 2 || hits["open:"+walFile] != 2 {
		t.Fatalf("compaction did not reach its swap: %d snapshot maps, %d WAL reopens, want 2 and 2",
			hits["map:"+mapFile], hits["open:"+walFile])
	}
	// Mapping 1 is Put's, the one the view pins.
	if slices.Contains(order.unmaps(), 1) {
		t.Fatalf("the pinned mapping was unmapped before the view's release (unmap order %v)", order.unmaps())
	}
	if got := DigestView(view); got != want {
		t.Fatalf("pinned view digests %s after the eviction, want %s", got[:12], want[:12])
	}
	release()

	hits := reg.Hits()
	if maps, unmaps := hits["map:"+mapFile], hits["unmap:"+mapFile]; maps != unmaps {
		t.Fatalf("%d snapshot mappings, %d unmaps (unmap order %v)", maps, unmaps, order.unmaps())
	}
	if opens, closes := hits["create:"+walFile]+hits["open:"+walFile], hits["close:"+walFile]; opens != closes {
		t.Fatalf("%d %s opens, %d closes", opens, walFile, closes)
	}
}
