package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// The conformance suite: every Store backend must pass the exact same
// behavioral checks. TestMemoryConformance and TestDiskConformance run
// it against both implementations; the service layer relies on the two
// being interchangeable. reopen simulates a restart: the disk backend
// closes and reopens on the same directory, the memory backend (which
// has nothing to reload) hands the store back unchanged.
func runConformance(t *testing.T, open func(t *testing.T, cfg Config) Store, reopen func(t *testing.T, s Store) Store) {
	t.Run("PutGetList", func(t *testing.T) { testPutGetList(t, open(t, Config{})) })
	t.Run("LRUEviction", func(t *testing.T) { testLRUEviction(t, open(t, Config{MaxGraphs: 2})) })
	t.Run("AppendLineage", func(t *testing.T) { testAppendLineage(t, open(t, Config{})) })
	t.Run("VersionWindow", func(t *testing.T) {
		testVersionWindow(t, open(t, Config{RetainVersions: 3}), reopen)
	})
	t.Run("DeltaAndMaterialize", func(t *testing.T) { testDeltaAndMaterialize(t, open(t, Config{})) })
	t.Run("Evict", func(t *testing.T) { testEvict(t, open(t, Config{})) })
	t.Run("Tail", func(t *testing.T) { testTail(t, open(t, Config{})) })
	t.Run("TailWindow", func(t *testing.T) {
		testTailWindow(t, open(t, Config{RetainVersions: 3}), reopen)
	})
	t.Run("Edgeless", func(t *testing.T) {
		testEdgeless(t, open(t, Config{RetainVersions: 3}), reopen)
	})
	for _, retain := range []int{3, 65} {
		t.Run(fmt.Sprintf("BoundedRecord/retain=%d", retain), func(t *testing.T) {
			testBoundedRecord(t, open(t, Config{RetainVersions: retain}), retain, reopen)
		})
	}
}

func TestMemoryConformance(t *testing.T) {
	runConformance(t, func(t *testing.T, cfg Config) Store {
		s := NewMemory(cfg)
		t.Cleanup(func() { s.Close() })
		return s
	}, func(t *testing.T, s Store) Store { return s })
}

func TestDiskConformance(t *testing.T) {
	runConformance(t, func(t *testing.T, cfg Config) Store {
		return openDiskCleanup(t, t.TempDir(), cfg)
	}, reopenDisk)
}

// openDiskCleanup opens a disk store that the test closes on cleanup.
func openDiskCleanup(t *testing.T, dir string, cfg Config) Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// reopenDisk closes a disk store and reopens its directory with the
// same configuration — a clean restart.
func reopenDisk(t *testing.T, s Store) Store {
	t.Helper()
	d := s.(*Disk)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return openDiskCleanup(t, d.dir, d.cfg)
}

// line builds a path graph on n vertices.
func line(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	return b.Build()
}

// putGraph stores a path graph under a deterministic identity and
// returns its meta.
func putGraph(t testing.TB, s Store, n int) Meta {
	t.Helper()
	g := line(n)
	digest := DigestGraph(g)
	meta := Meta{ID: "g-" + digest[:12], Name: fmt.Sprintf("line%d", n), Digest: digest, N: g.N(), M: g.M()}
	v0 := Version{Version: 0, Digest: digest, N: g.N(), M: g.M(), Components: 1}
	if _, err := s.Put(meta, g, v0); err != nil {
		t.Fatal(err)
	}
	return meta
}

// appendBatch chains one batch onto the graph's latest version.
func appendBatch(t testing.TB, s Store, id string, batch []graph.Edge) Version {
	t.Helper()
	vers, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	prev := vers[len(vers)-1]
	v := Version{
		Version:  prev.Version + 1,
		Digest:   ChainDigest(prev.Digest, prev.N, batch),
		N:        prev.N,
		M:        prev.M + len(batch),
		Appended: len(batch),
	}
	if err := s.Append(id, batch, v); err != nil {
		t.Fatal(err)
	}
	return v
}

// heldRecord returns the record a backend holds for id.
func heldRecord(t testing.TB, s Store, id string) *record {
	t.Helper()
	var rs *records
	switch s := s.(type) {
	case *Memory:
		rs = &s.records
	case *Disk:
		rs = &s.records
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ok := rs.t.recs[id]
	if !ok {
		t.Fatalf("no record for %s", id)
	}
	return r
}

// materialize builds the CSR of one retained version from its View,
// as a caller that needs the whole CSR API does.
func materialize(s Store, id string, version int) (*graph.Graph, error) {
	v, release, err := s.View(id, version)
	if err != nil {
		return nil, err
	}
	defer release()
	return graph.MaterializeView(v), nil
}

func testPutGetList(t *testing.T, s Store) {
	a := putGraph(t, s, 4)
	b := putGraph(t, s, 7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	got, ok := s.Get(a.ID)
	if !ok || got != a {
		t.Fatalf("Get(%s) = %+v, %v", a.ID, got, ok)
	}
	if _, ok := s.Get("g-nope"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("List order %v, want [%s %s]", list, a.ID, b.ID)
	}
	// Double Put of the same ID must fail, not silently replace.
	g := line(4)
	if _, err := s.Put(a, g, Version{Digest: a.Digest, N: g.N(), M: g.M()}); err == nil {
		t.Fatal("duplicate Put succeeded")
	}
}

// testLRUEviction is the regression test for the first-loaded-first-
// evicted bug: a graph that keeps being accessed must survive capacity
// pressure; the least recently used one goes.
func testLRUEviction(t *testing.T, s Store) {
	a := putGraph(t, s, 4)
	b := putGraph(t, s, 5)
	// Touch a: it is now more recently used than b.
	if _, ok := s.Get(a.ID); !ok {
		t.Fatal("graph a missing after put")
	}
	c := putGraph(t, s, 6)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(b.ID); ok {
		t.Error("least recently used graph b survived eviction")
	}
	if _, ok := s.Get(a.ID); !ok {
		t.Error("hot graph a was evicted despite being accessed")
	}
	if _, ok := s.Get(c.ID); !ok {
		t.Error("newest graph c was evicted")
	}
}

func testAppendLineage(t *testing.T, s Store) {
	m := putGraph(t, s, 5)
	v1 := appendBatch(t, s, m.ID, []graph.Edge{{U: 0, V: 4}})
	v2 := appendBatch(t, s, m.ID, []graph.Edge{{U: 1, V: 3}, {U: 2, V: 2}})
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 3 {
		t.Fatalf("%d versions, want 3", len(vers))
	}
	if vers[0].Version != 0 || vers[0].Digest != m.Digest {
		t.Errorf("version 0 = %+v", vers[0])
	}
	if vers[1] != v1 || vers[2] != v2 {
		t.Errorf("lineage %+v, want [%+v %+v]", vers[1:], v1, v2)
	}
	// Digests chain: recomputing from the retained data reproduces them.
	if want := ChainDigest(m.Digest, 5, []graph.Edge{{U: 0, V: 4}}); v1.Digest != want {
		t.Errorf("v1 digest %s, want %s", v1.Digest, want)
	}
	if err := s.Append("g-nope", nil, Version{}); err == nil {
		t.Error("append to unknown graph succeeded")
	}
}

// testVersionWindow pins retention as the window alone: five appends at
// RetainVersions=3 retire versions 0..2 — before any compaction, so the
// record (and the disk backend's WAL) still holds the retired batches —
// and a retired version is ErrNotFound on every read path, before and
// after a reopen, while every retained version materializes with its
// recorded shape.
func testVersionWindow(t *testing.T, s Store, reopen func(t *testing.T, s Store) Store) {
	m := putGraph(t, s, 6)
	for i := 0; i < 5; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 1)}})
	}
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 3 {
		t.Fatalf("window holds %d versions, want RetainVersions=3", len(vers))
	}
	if vers[0].Version != 3 || vers[2].Version != 5 {
		t.Fatalf("window %d..%d, want 3..5", vers[0].Version, vers[2].Version)
	}
	checkRetention(t, "appended", s, m.ID, vers)
	s = reopen(t, s)
	checkRetention(t, "reopened", s, m.ID, vers)
}

// checkRetention asserts that the graph's window is exactly want, that
// every version older than it is ErrNotFound on Delta, View and Tail,
// and that every version inside it materializes from its View with its
// recorded N and M.
func checkRetention(t *testing.T, label string, s Store, id string, want []Version) {
	t.Helper()
	got, err := s.Versions(id)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: window %+v, want %+v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: window[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
	latest := want[len(want)-1].Version
	for v := 0; v < want[0].Version; v++ {
		if _, err := s.Delta(id, v, latest); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: delta from retired version %d: %v, want ErrNotFound", label, v, err)
		}
		if _, release, err := s.View(id, v); !errors.Is(err, ErrNotFound) {
			if err == nil {
				release()
			}
			t.Errorf("%s: view of retired version %d: %v, want ErrNotFound", label, v, err)
		}
		if _, err := s.Tail(id, v); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: tail from retired version %d: %v, want ErrNotFound", label, v, err)
		}
	}
	for _, v := range want {
		g, err := materialize(s, id, v.Version)
		if err != nil {
			t.Fatalf("%s: materialize %d: %v", label, v.Version, err)
		}
		if g.M() != v.M || g.N() != v.N {
			t.Errorf("%s: version %d materialized as n=%d m=%d, want n=%d m=%d", label, v.Version, g.N(), g.M(), v.N, v.M)
		}
	}
}

func testDeltaAndMaterialize(t *testing.T, s Store) {
	m := putGraph(t, s, 5)
	b1 := []graph.Edge{{U: 0, V: 2}}
	b2 := []graph.Edge{{U: 1, V: 4}, {U: 3, V: 3}}
	appendBatch(t, s, m.ID, b1)
	appendBatch(t, s, m.ID, b2)

	d, err := s.Delta(m.ID, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]graph.Edge{}, b1...), b2...)
	if len(d) != len(want) {
		t.Fatalf("delta 0..2 has %d edges, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("delta[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	d, err = s.Delta(m.ID, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0] != b2[0] {
		t.Fatalf("delta 1..2 = %v", d)
	}
	if _, err := s.Delta(m.ID, 2, 1); err == nil {
		t.Error("backward delta succeeded")
	}

	g0, err := materialize(s, m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0.M() != m.M {
		t.Errorf("base materialization m=%d, want %d", g0.M(), m.M)
	}
	g2, err := materialize(s, m.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != m.M+3 {
		t.Errorf("latest materialization m=%d, want %d", g2.M(), m.M+3)
	}
	if !g2.HasEdge(1, 4) || !g2.HasEdge(0, 2) {
		t.Error("latest materialization missing appended edges")
	}
}

func testEvict(t *testing.T, s Store) {
	m := putGraph(t, s, 4)
	if !s.Evict(m.ID) {
		t.Fatal("evict reported absent")
	}
	if s.Evict(m.ID) {
		t.Fatal("second evict reported present")
	}
	if _, ok := s.Get(m.ID); ok {
		t.Fatal("evicted graph still present")
	}
	if _, err := s.Versions(m.ID); err == nil {
		t.Fatal("versions of evicted graph succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after evict", s.Len())
	}
}

// testTail pins the replication feed's contract: Tail(id, from) returns
// every retained batch record newer than from, oldest first, each
// carrying its full lineage metadata and its edges in append order.
func testTail(t *testing.T, s Store) {
	m := putGraph(t, s, 5)
	b1 := []graph.Edge{{U: 0, V: 4}}
	b2 := []graph.Edge{{U: 1, V: 3}, {U: 2, V: 2}}
	v1 := appendBatch(t, s, m.ID, b1)
	v2 := appendBatch(t, s, m.ID, b2)

	recs, err := s.Tail(m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("Tail(0) returned %d records, want 2", len(recs))
	}
	if recs[0].Info != v1 || recs[1].Info != v2 {
		t.Errorf("Tail lineage [%+v %+v], want [%+v %+v]", recs[0].Info, recs[1].Info, v1, v2)
	}
	if len(recs[0].Edges) != 1 || recs[0].Edges[0] != b1[0] {
		t.Errorf("record 1 edges %+v", recs[0].Edges)
	}
	if len(recs[1].Edges) != 2 || recs[1].Edges[0] != b2[0] || recs[1].Edges[1] != b2[1] {
		t.Errorf("record 2 edges %+v", recs[1].Edges)
	}

	// From the middle: only what is newer.
	recs, err = s.Tail(m.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Info != v2 {
		t.Fatalf("Tail(1) = %+v, want exactly v2", recs)
	}
	// From the latest version: empty, nil error — the live-feed idle case.
	recs, err = s.Tail(m.ID, 2)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Tail(latest) = %+v, %v; want empty, nil", recs, err)
	}
	// Beyond the latest: ErrNotFound — the replica is ahead of us, which
	// only a forked history can produce.
	if _, err := s.Tail(m.ID, 3); err == nil {
		t.Error("Tail past the latest version succeeded")
	}
	if _, err := s.Tail("g-nope", 0); err == nil {
		t.Error("Tail of an unknown graph succeeded")
	}
}

// testTailWindow pins the retention interaction: once a version falls
// out of the retained window, tailing from it is ErrNotFound — the
// catch-up data is gone and the replica must re-bootstrap — while
// tailing from inside the window still works. Five appends at
// RetainVersions=3 stop short of a compaction, so the retired batches
// are still in the record and the disk backend's WAL; the answers must
// not change across a reopen that replays them.
func testTailWindow(t *testing.T, s Store, reopen func(t *testing.T, s Store) Store) {
	m := putGraph(t, s, 5)
	for i := 0; i < 5; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i % 4), V: 4}})
	}
	vers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	oldest, latest := vers[0].Version, vers[len(vers)-1].Version
	if oldest == 0 {
		t.Fatalf("window never trimmed: %+v", vers)
	}
	check := func(label string) {
		t.Helper()
		// Inside the window: the tail covers oldest..latest.
		recs, err := s.Tail(m.ID, oldest)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(recs) != latest-oldest {
			t.Fatalf("%s: Tail(%d) returned %d records, want %d", label, oldest, len(recs), latest-oldest)
		}
		for i, rec := range recs {
			if rec.Info != vers[i+1] {
				t.Fatalf("%s: record %d is %+v, want %+v", label, i, rec.Info, vers[i+1])
			}
		}
		// Before the window (Tail included): gone for good.
		checkRetention(t, label, s, m.ID, vers)
	}
	check("appended")
	s = reopen(t, s)
	check("reopened")
}

// testEdgeless runs an edgeless graph (n=5, m=0) through the whole
// record life: Put, reopen, a vertex-growing append, appends to twice
// the retained window (a compaction), and a second
// reopen. Every version must come back with the right shape and the
// digest of an independently built graph.
func testEdgeless(t *testing.T, s Store, reopen func(t *testing.T, s Store) Store) {
	g := graph.NewBuilder(5).Build()
	digest := DigestGraph(g)
	meta := Meta{ID: "g-" + digest[:12], Name: "edgeless", Digest: digest, N: 5, M: 0}
	v0 := Version{Version: 0, Digest: digest, N: 5, M: 0, Components: 5}
	if _, err := s.Put(meta, g, v0); err != nil {
		t.Fatal(err)
	}
	check := func(label string, version int, want *graph.Graph) {
		t.Helper()
		got, err := materialize(s, meta.ID, version)
		if err != nil {
			t.Fatalf("%s: materialize %d: %v", label, version, err)
		}
		if got.N() != want.N() || got.M() != want.M() || DigestGraph(got) != DigestGraph(want) {
			t.Fatalf("%s: version %d is n=%d m=%d, want n=%d m=%d", label, version, got.N(), got.M(), want.N(), want.M())
		}
		v, release, err := s.View(meta.ID, version)
		if err != nil {
			t.Fatalf("%s: view %d: %v", label, version, err)
		}
		defer release()
		if DigestView(v) != DigestGraph(want) {
			t.Fatalf("%s: view of version %d differs from the built graph", label, version)
		}
	}
	check("put", 0, g)
	s = reopen(t, s)
	if got, ok := s.Get(meta.ID); !ok || got != meta {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
	check("reopen", 0, g)

	// Grow the vertex set to 7, then reach 2×RetainVersions=6 appends.
	batches := [][]graph.Edge{{{U: 0, V: 6}}, {{U: 1, V: 2}}, {{U: 3, V: 4}}, {{U: 5, V: 6}}, {{U: 2, V: 5}}, {{U: 0, V: 1}}}
	prev := v0
	b := graph.NewBuilder(7)
	for _, batch := range batches {
		v := Version{
			Version:  prev.Version + 1,
			Digest:   ChainDigest(prev.Digest, 7, batch),
			N:        7,
			M:        prev.M + len(batch),
			Appended: len(batch),
		}
		if err := s.Append(meta.ID, batch, v); err != nil {
			t.Fatal(err)
		}
		for _, e := range batch {
			b.AddEdge(e.U, e.V)
		}
		prev = v
	}
	want := b.Build()
	vers, err := s.Versions(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vers[0].Version == 0 || vers[len(vers)-1] != prev {
		t.Fatalf("window %+v, want it trimmed past version 0 and ending at %+v", vers, prev)
	}
	check("appended", prev.Version, want)
	s = reopen(t, s)
	check("reopen after compaction", prev.Version, want)
}

// testBoundedRecord pins the one compaction policy on every backend:
// over 10×retain appends, the record never holds more than 2×retain
// batches, and its appended edges are exactly those batches' edges.
// Every retained version's view digests as the graph the test builds
// on its own from the base and the batches, checked right before each
// append that rebases the snapshot, right after it, and after a reopen.
func testBoundedRecord(t *testing.T, s Store, retain int, reopen func(t *testing.T, s Store) Store) {
	const n = 16
	m := putGraph(t, s, n)
	rng := rand.New(rand.NewPCG(uint64(retain), 31))
	var batches [][]graph.Edge // batches[i] makes version i+1
	want := func(version int) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i < n-1; i++ {
			b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
		}
		for _, batch := range batches[:version] {
			for _, e := range batch {
				b.AddEdge(e.U, e.V)
			}
		}
		return b.Build()
	}
	checkWindow := func(label string) {
		t.Helper()
		vers, err := s.Versions(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, ver := range vers {
			v, release, err := s.View(m.ID, ver.Version)
			if err != nil {
				t.Fatalf("%s: View(%d): %v", label, ver.Version, err)
			}
			got, wantD := DigestView(v), DigestGraph(want(ver.Version))
			release()
			if got != wantD {
				t.Fatalf("%s: version %d: view digest %s, want %s", label, ver.Version, got[:12], wantD[:12])
			}
		}
	}
	rebases := 0
	for i := 0; i < 10*retain; i++ {
		r := heldRecord(t, s, m.ID)
		r.mu.Lock()
		snap, due := r.snapVer.Version, len(r.batches)+2 > 2*retain
		r.mu.Unlock()
		if due {
			checkWindow(fmt.Sprintf("before append %d", i+1))
		}
		batch := make([]graph.Edge, 1+rng.IntN(3))
		for j := range batch {
			batch[j] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
		}
		batches = append(batches, batch)
		appendBatch(t, s, m.ID, batch)
		r.mu.Lock()
		held, heldEdges, rebased := len(r.batches), len(r.appended), r.snapVer.Version != snap
		edges := 0
		for _, b := range r.batches {
			edges += len(batches[b.v.Version-1])
		}
		r.mu.Unlock()
		if held > 2*retain {
			t.Fatalf("after append %d the record holds %d batches, want at most %d", i+1, held, 2*retain)
		}
		if heldEdges != edges {
			t.Fatalf("after append %d the record holds %d appended edges, its %d batches have %d", i+1, heldEdges, held, edges)
		}
		if rebased {
			rebases++
			checkWindow(fmt.Sprintf("after append %d", i+1))
		}
	}
	if rebases == 0 {
		t.Fatalf("%d appends never rebased the snapshot", 10*retain)
	}
	s = reopen(t, s)
	checkWindow("reopened")
}
