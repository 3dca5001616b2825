package store

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

func openDisk(t testing.TB, dir string, cfg Config) *Disk {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskReopen: everything put and appended before Close comes back
// bit-identically — metas, lineage digests, materialized graphs, and
// first-stored order.
func TestDiskReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	a := putGraph(t, s, 6)
	b := putGraph(t, s, 9)
	appendBatch(t, s, a.ID, []graph.Edge{{U: 0, V: 3}})
	appendBatch(t, s, a.ID, []graph.Edge{{U: 2, V: 5}, {U: 1, V: 1}})
	wantVers, err := s.Versions(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantGraph, err := materialize(s, a.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantBin bytes.Buffer
	if err := graph.WriteBinary(&wantBin, wantGraph); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDisk(t, dir, Config{})
	defer s2.Close()
	list := s2.List()
	if len(list) != 2 || list[0] != a || list[1] != b {
		t.Fatalf("reopened list %+v, want [%+v %+v]", list, a, b)
	}
	gotVers, err := s2.Versions(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVers) != len(wantVers) {
		t.Fatalf("reopened %d versions, want %d", len(gotVers), len(wantVers))
	}
	for i := range wantVers {
		if gotVers[i] != wantVers[i] {
			t.Errorf("version[%d] = %+v, want %+v", i, gotVers[i], wantVers[i])
		}
	}
	gotGraph, err := materialize(s2, a.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	var gotBin bytes.Buffer
	if err := graph.WriteBinary(&gotBin, gotGraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBin.Bytes(), gotBin.Bytes()) {
		t.Error("reopened materialization differs from pre-close one")
	}
	// The lineage keeps chaining across the restart.
	appendBatch(t, s2, a.ID, []graph.Edge{{U: 4, V: 5}})
	vers, err := s2.Versions(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vers[len(vers)-1].Version != 3 {
		t.Errorf("post-reopen append made version %d, want 3", vers[len(vers)-1].Version)
	}
}

// TestDiskTornWALTail: bytes beyond the last fully fsync'd record — a
// crash mid-append — are truncated on open; every earlier record
// survives.
func TestDiskTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	m := putGraph(t, s, 5)
	appendBatch(t, s, m.ID, []graph.Edge{{U: 0, V: 2}})
	appendBatch(t, s, m.ID, []graph.Edge{{U: 1, V: 3}})
	s.Close()

	walPath := filepath.Join(dir, m.ID, walFile)
	cases := []struct {
		name string
		tear func([]byte) []byte
		want int // latest version after recovery
	}{
		// Cutting into the final record loses it; the one before stays.
		{"partial record", func(d []byte) []byte { return d[:len(d)-7] }, 1},
		// Corrupting the final record's digest likewise drops only it.
		{"flipped bit", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)-1] ^= 0x40
			return out
		}, 1},
		// Garbage after intact records is a classic torn write: both
		// real appends survive, the junk is truncated away.
		{"garbage tail", func(d []byte) []byte {
			return append(append([]byte(nil), d...), []byte("\x55garbage that is no record")...)
		}, 2},
	}
	for _, tc := range cases {
		name, tear := tc.name, tc.tear
		good := rawReadFile(t, walPath)
		rawWriteFile(t, walPath, tear(good))
		s2 := openDisk(t, dir, Config{})
		vers, err := s2.Versions(m.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := vers[len(vers)-1].Version; got != tc.want {
			t.Errorf("%s: recovered to version %d, want %d", name, got, tc.want)
		}
		s2.Close()
		// Restore the intact WAL for the next case.
		rawWriteFile(t, walPath, good)
	}
}

// TestDiskTornWALHeader: a crash between Put's snapshot rename and the
// completed WAL header write leaves a strict prefix of the magic; open
// must recreate the WAL (the graph has no acknowledged appends) instead
// of refusing to boot.
func TestDiskTornWALHeader(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	m := putGraph(t, s, 5)
	s.Close()

	walPath := filepath.Join(dir, m.ID, walFile)
	for cut := 0; cut < len(walMagic); cut++ {
		rawWriteFile(t, walPath, []byte(walMagic[:cut]))
		s2 := openDisk(t, dir, Config{})
		if _, ok := s2.Get(m.ID); !ok {
			t.Fatalf("cut=%d: graph lost", cut)
		}
		// The recreated WAL must accept appends again.
		appendBatch(t, s2, m.ID, []graph.Edge{{U: 0, V: 2}})
		s2.Close()
	}
	// Non-magic garbage of header length is corruption, not a torn write.
	rawWriteFile(t, walPath, []byte("XXXXXXXX"))
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("open accepted a WAL with a wrong magic")
	}
}

// TestDiskSnapshotCorruption: a snapshot whose digests do not verify is
// a hard open error — the store refuses to guess at graph content. One
// bit is flipped in each WCCM1 section in turn: header page, adjacency,
// offsets, trailer.
func TestDiskSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	m := putGraph(t, s, 5)
	s.Close()

	snapPath := filepath.Join(dir, m.ID, mapFile)
	good := rawReadFile(t, snapPath)
	for _, off := range []int{8, 4096, len(good) - 97, len(good) - 1} {
		data := append([]byte(nil), good...)
		data[off] ^= 0x01
		rawWriteFile(t, snapPath, data)
		if _, err := Open(dir, Config{}); err == nil {
			t.Fatalf("open accepted a snapshot with byte %d of %d flipped", off, len(good))
		}
	}
}

// TestDiskRefusesLegacySnapshot: a graph directory that still holds a
// WCCB1 snapshot.bin written by an earlier store version, and no
// snapshot.map, is acknowledged data the store cannot read. Open must
// fail naming the graph and the file, and must leave the file in place
// instead of sweeping the directory as a crash husk.
func TestDiskRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	gdir := filepath.Join(dir, "g-legacy0000")
	legacy := filepath.Join(gdir, legacyFile)
	rawMkdirAll(t, gdir)
	rawWriteFile(t, legacy, []byte("WCCSNAP1 acknowledged graph"))
	rawWriteFile(t, filepath.Join(gdir, walFile), []byte(walMagic))
	_, err := Open(dir, Config{})
	if err == nil {
		t.Fatal("open accepted a data directory with a legacy snapshot")
	}
	for _, want := range []string{"g-legacy0000", legacyFile} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("open error %q does not name %s", err, want)
		}
	}
	if !rawExists(t, legacy) {
		t.Fatal("open removed the legacy snapshot")
	}
}

// TestDiskChainBreak: a WAL record whose chained digest does not follow
// from its predecessor is a hard error, not a silent truncation — its
// per-record digest is fine, so this is inconsistency, not a torn write.
func TestDiskChainBreak(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	m := putGraph(t, s, 5)
	s.Close()

	// Hand-craft a record whose version metadata claims a digest the
	// chain cannot produce.
	bad := Version{Version: 1, Digest: "doesnotchain", N: 5, M: 5, Appended: 1}
	rec, err := EncodeRecord(bad, []graph.Edge{{U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, m.ID, walFile)
	rawAppendFile(t, walPath, rec)
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("open accepted a broken digest chain")
	}
}

// TestDiskCompactionPersists: after enough appends to trigger
// compaction, the on-disk snapshot has been rebased past version 0, the
// WAL holds only the window's batches, and a reopen still serves the
// identical retained lineage.
func TestDiskCompactionPersists(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{RetainVersions: 3})
	m := putGraph(t, s, 8)
	for i := 0; i < 6; i++ {
		appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
	}
	wantVers, err := s.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wantVers[0].Version != 4 || wantVers[len(wantVers)-1].Version != 6 {
		t.Fatalf("window %d..%d, want 4..6", wantVers[0].Version, wantVers[len(wantVers)-1].Version)
	}
	s.Close()

	// The snapshot file now materializes version 4 directly (its meta
	// says so), and the WAL is shorter than a full history would be.
	raw := rawReadFile(t, filepath.Join(dir, m.ID, mapFile))
	if !bytes.Contains(raw, []byte(`"version":4`)) {
		t.Error("snapshot metadata does not carry the compacted version")
	}

	s2 := openDisk(t, dir, Config{RetainVersions: 3})
	defer s2.Close()
	gotVers, err := s2.Versions(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVers) != len(wantVers) {
		t.Fatalf("reopened window %d entries, want %d", len(gotVers), len(wantVers))
	}
	for i := range wantVers {
		if gotVers[i] != wantVers[i] {
			t.Errorf("window[%d] = %+v, want %+v", i, gotVers[i], wantVers[i])
		}
	}
	g, err := materialize(s2, m.ID, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != wantVers[len(wantVers)-1].M {
		t.Errorf("compacted+reopened materialization m=%d, want %d", g.M(), wantVers[len(wantVers)-1].M)
	}
}

// TestDiskEvictRemovesFiles: eviction deletes the graph directory, and
// a reopen does not resurrect the graph.
func TestDiskEvictRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Config{})
	m := putGraph(t, s, 4)
	if !s.Evict(m.ID) {
		t.Fatal("evict failed")
	}
	if rawExists(t, filepath.Join(dir, m.ID)) {
		t.Fatal("graph directory survived eviction")
	}
	s.Close()
	s2 := openDisk(t, dir, Config{})
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("evicted graph resurrected: %d graphs", s2.Len())
	}
}

// TestDiskEvictFailedRemoveAll: when the eviction's directory removal
// fails, the directory it leaves holds no snapshot, so the next Open
// sweeps it as a husk instead of serving the evicted graph again.
func TestDiskEvictFailedRemoveAll(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry(1)
	s := openDisk(t, dir, Config{FS: fault.Inject(fault.OS{}, reg)})
	m := putGraph(t, s, 4)
	reg.Add(fault.Rule{Site: "removeall:" + m.ID, Kind: fault.KindErr})
	if !s.Evict(m.ID) {
		t.Fatal("evict reported absent")
	}
	if hits := reg.Hits()["removeall:"+m.ID]; hits != 1 {
		t.Fatalf("%d directory removals, want 1 (the failing one)", hits)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDisk(t, dir, Config{})
	defer s2.Close()
	if _, ok := s2.Get(m.ID); ok {
		t.Fatal("the evicted graph is served again after reopening")
	}
	if rawExists(t, filepath.Join(dir, m.ID)) {
		t.Fatal("the evicted graph's directory survived the reopen")
	}
}

// FuzzWALReplay: WAL replay over arbitrary bytes must never panic and
// must either recover a consistent prefix of the lineage or fail with
// an error — and after a successful open, the store must still serve
// its snapshot.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL (two records), its truncations, and noise.
	seedDir := f.TempDir()
	s, err := Open(seedDir, Config{})
	if err != nil {
		f.Fatal(err)
	}
	g := line(5)
	digest := DigestGraph(g)
	meta := Meta{ID: "g-fuzzseed", Name: "seed", Digest: digest, N: g.N(), M: g.M()}
	if _, err := s.Put(meta, g, Version{Digest: digest, N: g.N(), M: g.M(), Components: 1}); err != nil {
		f.Fatal(err)
	}
	b1 := []graph.Edge{{U: 0, V: 2}}
	v1 := Version{Version: 1, Digest: ChainDigest(digest, 5, b1), N: 5, M: 5, Appended: 1}
	if err := s.Append(meta.ID, b1, v1); err != nil {
		f.Fatal(err)
	}
	b2 := []graph.Edge{{U: 1, V: 4}}
	v2 := Version{Version: 2, Digest: ChainDigest(v1.Digest, 5, b2), N: 5, M: 6, Appended: 1}
	if err := s.Append(meta.ID, b2, v2); err != nil {
		f.Fatal(err)
	}
	s.Close()
	wal := rawReadFile(f, filepath.Join(seedDir, meta.ID, walFile))
	snap := rawReadFile(f, filepath.Join(seedDir, meta.ID, mapFile))
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	f.Add([]byte(walMagic))
	f.Add([]byte("not a wal"))
	f.Add(append(append([]byte(nil), wal...), 0xff, 0x03, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		dir := t.TempDir()
		gdir := filepath.Join(dir, meta.ID)
		rawMkdirAll(t, gdir)
		rawWriteFile(t, filepath.Join(gdir, mapFile), snap)
		rawWriteFile(t, filepath.Join(gdir, walFile), data)
		st, err := Open(dir, Config{})
		if err != nil {
			return // rejected: chain break or bad header, both fine
		}
		defer st.Close()
		vers, err := st.Versions(meta.ID)
		if err != nil || len(vers) == 0 {
			t.Fatalf("opened store cannot list versions: %v", err)
		}
		// Whatever prefix survived must materialize cleanly.
		g, err := materialize(st, meta.ID, vers[len(vers)-1].Version)
		if err != nil {
			t.Fatalf("materialize recovered tip: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("recovered graph invalid: %v", err)
		}
	})
}

// BenchmarkDiskOpen reopens a data directory holding one 2^20-edge
// graph — map the snapshot, verify its trailer digests, re-derive the
// v0 content digest, replay the empty WAL — and reports the edge rate.
func BenchmarkDiskOpen(b *testing.B) {
	const m = 1 << 20
	g := randomMultigraph(rand.New(rand.NewPCG(43, 10)), m/2, 0, m)
	digest := DigestGraph(g)
	dir := b.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{ID: "g-" + digest[:12], Name: "open", Digest: digest, N: g.N(), M: g.M()}
	if _, err := s.Put(meta, g, Version{Digest: digest, N: g.N(), M: g.M()}); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkTipView times a View of the latest version, and its release,
// on both backends after 65 and after 2000 appends of 256-edge batches
// to a 1000-vertex path at the default window (RetainVersions 65). The
// tip is an Overlay of the batches the record holds over its snapshot,
// so its time and B/op follow the record's held edges ("held-edges"),
// and all three must stay flat in the append count. It fails if the
// record holds more than 2×RetainVersions batches of edges.
func BenchmarkTipView(b *testing.B) {
	const n, batchLen, retain = 1000, 256, 65
	backends := []struct {
		name string
		open func(b *testing.B) Store
	}{
		{"memory", func(b *testing.B) Store { return NewMemory(Config{}) }},
		{"disk", func(b *testing.B) Store { return openDisk(b, b.TempDir(), Config{}) }},
	}
	for _, be := range backends {
		for _, appends := range []int{65, 2000} {
			b.Run(fmt.Sprintf("%s/appends=%d", be.name, appends), func(b *testing.B) {
				s := be.open(b)
				defer s.Close()
				m := putGraph(b, s, n)
				rng := rand.New(rand.NewPCG(uint64(appends), 7))
				var tip Version
				for i := 0; i < appends; i++ {
					batch := make([]graph.Edge, batchLen)
					for j := range batch {
						batch[j] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
					}
					tip = appendBatch(b, s, m.ID, batch)
				}
				r := heldRecord(b, s, m.ID)
				r.mu.Lock()
				held := len(r.appended)
				r.mu.Unlock()
				if held > 2*retain*batchLen {
					b.Fatalf("the record holds %d appended edges after %d appends, want at most %d", held, appends, 2*retain*batchLen)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, release, err := s.View(m.ID, tip.Version)
					if err != nil {
						b.Fatal(err)
					}
					release()
				}
				b.ReportMetric(float64(held), "held-edges")
			})
		}
	}
}
