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
	s := openDisk(t, t.TempDir(), Config{RetainVersions: w, FS: trace})
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
	s := openDisk(t, dir, Config{RetainVersions: w, FS: fault.Inject(fault.OS{}, reg)})
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
	s := openDisk(t, t.TempDir(), Config{RetainVersions: w, FS: fault.Inject(fault.OS{}, reg)})
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

// compactionRace is a graph whose compaction is stalled at its WAL
// rename, inside the append that triggered it, which runs in its own
// goroutine. A view of the tip taken before that append is pinned on
// Put's mapping (mapping 1). While the stall lasts (500ms by default),
// a test makes the record disappear under the compaction.
type compactionRace struct {
	s        *Disk
	reg      *fault.Registry
	order    *mapOrder
	r        *record
	view     graph.View
	release  func()
	want     string
	tip      int // the version the triggering append acknowledges
	appended chan error
}

func stallCompaction(t *testing.T, dir string) *compactionRace {
	t.Helper()
	const w = 2
	c := &compactionRace{reg: fault.NewRegistry(1), order: &mapOrder{FS: fault.OS{}}, appended: make(chan error, 1)}
	c.s = openDisk(t, dir, Config{RetainVersions: w, FS: fault.Inject(c.order, c.reg)})
	m := putGraph(t, c.s, 8)
	for i := 0; i < 2*w-1; i++ {
		appendBatch(t, c.s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	vers, err := c.s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	c.view, c.release, err = c.s.View(m.ID, vers[len(vers)-1].Version)
	if err != nil {
		t.Fatal(err)
	}
	c.want = DigestView(c.view)
	c.s.mu.Lock()
	c.r = c.s.t.recs[m.ID]
	c.s.mu.Unlock()

	c.reg.Add(fault.Rule{Site: "rename:" + walFile, Hit: 1, Kind: fault.KindStall})
	// The 2w-th append runs the compaction before it returns.
	batch := []graph.Edge{{U: 5, V: 7}}
	prev := vers[len(vers)-1]
	v := Version{Version: prev.Version + 1, Digest: ChainDigest(prev.Digest, prev.N, batch), N: prev.N, M: prev.M + 1, Appended: 1}
	c.tip = v.Version
	go func() { c.appended <- c.s.Append(m.ID, batch, v) }()
	for deadline := time.Now().Add(10 * time.Second); c.reg.Hits()["rename:"+walFile] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the compaction never reached its WAL rename")
		}
	}
	return c
}

// finish waits for the triggering append and checks the end state: the
// append succeeded, the compaction reached its swap and took the
// evicted exit (the record was not rebased), the pinned view still
// reads the same graph on a mapping that outlives everything but the
// view's release, and after Close and the release every mapping and
// every wal.log handle has been released exactly once.
func (c *compactionRace) finish(t *testing.T) {
	t.Helper()
	if err := <-c.appended; err != nil {
		t.Fatalf("the triggering append: %v", err)
	}
	if err := c.s.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := c.reg.Hits(); hits["map:"+mapFile] != 2 || hits["open:"+walFile] != 2 {
		t.Fatalf("compaction did not reach its swap: %d snapshot maps, %d WAL reopens, want 2 and 2",
			hits["map:"+mapFile], hits["open:"+walFile])
	}
	c.r.mu.Lock()
	snap := c.r.snapVer.Version
	c.r.mu.Unlock()
	if snap != 0 {
		t.Fatalf("the evicted record was rebased to version %d", snap)
	}
	if slices.Contains(c.order.unmaps(), 1) {
		t.Fatalf("the pinned mapping was unmapped before the view's release (unmap order %v)", c.order.unmaps())
	}
	if got := DigestView(c.view); got != c.want {
		t.Fatalf("pinned view digests %s after the record went, want %s", got[:12], c.want[:12])
	}
	c.release()

	hits := c.reg.Hits()
	if maps, unmaps := hits["map:"+mapFile], hits["unmap:"+mapFile]; maps != unmaps {
		t.Fatalf("%d snapshot mappings, %d unmaps (unmap order %v)", maps, unmaps, c.order.unmaps())
	}
	if opens, closes := hits["create:"+walFile]+hits["open:"+walFile], hits["close:"+walFile]; opens != closes {
		t.Fatalf("%d %s opens, %d closes", opens, walFile, closes)
	}
}

// TestEvictDuringCompaction pins record's lock rule where eviction and
// an append's compaction meet: the graph is evicted while the
// compaction is stalled at its WAL rename. The eviction's directory
// removal is made to fail, so the compaction gets past the rename and
// reaches its swap with the record already gone. The eviction drops the
// old WAL and mapping, the compaction its orphaned new ones.
func TestEvictDuringCompaction(t *testing.T) {
	c := stallCompaction(t, t.TempDir())
	c.reg.Add(fault.Rule{Site: "removeall:" + c.r.meta.ID, Kind: fault.KindErr})
	if !c.s.Evict(c.r.meta.ID) {
		t.Fatal("evict reported absent")
	}
	c.finish(t)
}

// TestCloseDuringCompaction: Close lands while an append's compaction
// is stalled at its WAL rename. Close drops the old WAL and mapping and
// returns only once the compaction has taken its evicted exit, which
// drops the new ones. The files the compaction finished are a valid
// state: a reopen serves the whole retained window.
func TestCloseDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	c := stallCompaction(t, dir)
	if err := c.s.Close(); err != nil {
		t.Fatal(err)
	}
	if opened := c.reg.Hits()["open:"+walFile]; opened != 2 {
		t.Fatalf("Close returned before the compaction reached its swap (%d WAL reopens, want 2)", opened)
	}
	c.finish(t)

	s := openDisk(t, dir, Config{RetainVersions: 2})
	defer s.Close()
	got, err := s.Versions(c.r.meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1].Version != c.tip {
		t.Fatalf("reopened window %+v, want it to end at the acknowledged version %d", got, c.tip)
	}
}
