package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// The crash-point sweep: enumerate every filesystem operation the
// put/append/compaction workload performs (via a rule-free recording
// registry), then re-run the workload once per (site, hit) pair with a
// simulated crash injected exactly there, reopen the directory with a
// clean filesystem, and assert the recovered store is byte-equivalent
// to a prefix of the reference lineage — the pre-batch or post-batch
// state of whichever append was in flight, never a third thing.
//
// The workload is sized to compact twice (RetainVersions=3, ten appends,
// SyncCompaction: compactions at appends 6 and 10), so the sweep covers
// both compaction renames and the snapshot rewrite — including a fold
// onto an already rebased snapshot — not just the WAL append path.

// sweepN is the vertex count of the sweep's base path graph.
const sweepN = 8

// sweepBatches returns the appended batches, all edges distinct from
// each other and from the base path (so the expected graph of each
// version is reconstructible as a plain edge set).
func sweepBatches() [][]graph.Edge {
	return [][]graph.Edge{
		{{U: 0, V: 2}, {U: 1, V: 3}},
		{{U: 2, V: 4}, {U: 3, V: 5}},
		{{U: 4, V: 6}, {U: 5, V: 7}},
		{{U: 0, V: 4}, {U: 2, V: 6}},
		{{U: 1, V: 5}, {U: 3, V: 7}},
		{{U: 0, V: 7}, {U: 1, V: 6}},
		{{U: 0, V: 3}, {U: 1, V: 4}},
		{{U: 2, V: 5}, {U: 3, V: 6}},
		{{U: 4, V: 7}, {U: 0, V: 6}},
		{{U: 1, V: 7}, {U: 2, V: 7}},
	}
}

// sweepLineage computes the reference lineage: version 0 (the base path
// graph) followed by one chained entry per batch — exactly the metadata
// the workload hands the store, so recovered versions must match these
// structs verbatim.
func sweepLineage() []Version {
	g := line(sweepN)
	digest := DigestGraph(g)
	lineage := []Version{{Version: 0, Digest: digest, N: g.N(), M: g.M(), Components: 1}}
	prev := lineage[0]
	for _, batch := range sweepBatches() {
		v := Version{
			Version:    prev.Version + 1,
			Digest:     ChainDigest(prev.Digest, prev.N, batch),
			N:          prev.N,
			M:          prev.M + len(batch),
			Appended:   len(batch),
			Components: 1,
		}
		lineage = append(lineage, v)
		prev = v
	}
	return lineage
}

// sweepGraphDigest reconstructs the expected graph digest of version k
// independently of the store: base path edges plus the first k batches.
func sweepGraphDigest(k int) string {
	b := graph.NewBuilder(sweepN)
	for i := 0; i < sweepN-1; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	for _, batch := range sweepBatches()[:k] {
		for _, e := range batch {
			b.AddEdge(e.U, e.V)
		}
	}
	return DigestGraph(b.Build())
}

func sweepID() string {
	return "g-" + DigestGraph(line(sweepN))[:12]
}

// sweepConfig builds the sweep's store config.
func sweepConfig(fs fault.FS) Config {
	return Config{RetainVersions: 3, SyncCompaction: true, FS: fs}
}

// runCrashScenario executes the workload on dir through fs, stopping at
// the first error (under a crash latch everything after the first
// failure fails too). It reports whether the Put was acknowledged and
// how many appends were.
func runCrashScenario(dir string, fs fault.FS) (putOK bool, acked int) {
	s, err := Open(dir, sweepConfig(fs))
	if err != nil {
		return false, 0
	}
	defer s.Close()
	g := line(sweepN)
	lineage := sweepLineage()
	meta := Meta{ID: sweepID(), Name: "sweep", Digest: lineage[0].Digest, N: g.N(), M: g.M()}
	if _, err := s.Put(meta, g, lineage[0]); err != nil {
		return false, 0
	}
	for i, batch := range sweepBatches() {
		if err := s.Append(meta.ID, batch, lineage[i+1]); err != nil {
			return true, i
		}
	}
	return true, len(sweepBatches())
}

// verifyRecovery reopens dir with the real filesystem and asserts the
// no-third-outcome contract: the store opens, the recovered lineage is
// the reference lineage truncated at acked or acked+1 (the +1 is the
// fundamental crash-after-write-before-ack ambiguity), every retained
// version's metadata matches byte for byte, the materialized graph
// matches the independently reconstructed edge set, and the store
// accepts a fresh append afterwards.
func verifyRecovery(t *testing.T, dir, label string, putOK bool, acked int) {
	t.Helper()
	s, err := Open(dir, sweepConfig(nil))
	if err != nil {
		t.Fatalf("%s: clean reopen failed: %v", label, err)
	}
	defer s.Close()
	lineage := sweepLineage()
	id := sweepID()
	if s.Len() == 0 {
		if putOK {
			t.Fatalf("%s: graph lost after an acknowledged Put", label)
		}
		return // crash before the graph durably existed
	}
	vers, err := s.Versions(id)
	if err != nil || len(vers) == 0 {
		t.Fatalf("%s: recovered store has no lineage for %s: %v", label, id, err)
	}
	latest := vers[len(vers)-1]
	lo, hi := acked, acked+1
	if !putOK {
		// The Put itself was in flight: only version 0 may have landed.
		lo, hi = 0, 0
	}
	if latest.Version < lo || latest.Version > hi {
		t.Fatalf("%s: recovered to version %d with %d appends acked — neither pre- nor post-batch state", label, latest.Version, acked)
	}
	for _, v := range vers {
		if v != lineage[v.Version] {
			t.Fatalf("%s: recovered version %d = %+v, reference lineage says %+v", label, v.Version, v, lineage[v.Version])
		}
	}
	g, err := materialize(s, id, latest.Version)
	if err != nil {
		t.Fatalf("%s: materialize recovered version %d: %v", label, latest.Version, err)
	}
	if got, want := DigestGraph(g), sweepGraphDigest(latest.Version); got != want {
		t.Fatalf("%s: recovered graph digest %s, want %s (version %d)", label, got[:12], want[:12], latest.Version)
	}
	// Recovery must leave the store fully writable, not just readable.
	extra := []graph.Edge{{U: 0, V: 5}}
	next := Version{
		Version:    latest.Version + 1,
		Digest:     ChainDigest(latest.Digest, latest.N, extra),
		N:          latest.N,
		M:          latest.M + 1,
		Appended:   1,
		Components: 1,
	}
	if err := s.Append(id, extra, next); err != nil {
		t.Fatalf("%s: post-recovery append failed: %v", label, err)
	}
}

// TestCrashPointSweep kills the store at every filesystem operation the
// workload performs (snapshot write and rename, the map/unmap seam, WAL
// append and fsync, both compaction renames) once per (site, hit) pair,
// plus a torn-write variant for every write site, and asserts
// digest-verified recovery after each. This is the chaos proof behind the failure-model table in
// README.md.
func TestCrashPointSweep(t *testing.T) {
	// Record pass: enumerate the workload's fault sites.
	rec := fault.NewRegistry(1)
	recDir := filepath.Join(t.TempDir(), "data")
	putOK, acked := runCrashScenario(recDir, fault.Inject(fault.OS{}, rec))
	if !putOK || acked != len(sweepBatches()) {
		t.Fatalf("record pass failed: putOK=%v acked=%d", putOK, acked)
	}
	verifyRecovery(t, recDir, "record pass", putOK, acked)
	hits := rec.Hits()
	// The sweep is only meaningful if the workload actually crossed the
	// append fsync path, both compaction renames, and the mapping seam.
	for _, must := range []string{"write:wal.log", "sync:wal.log", "rename:snapshot.map", "rename:wal.log", "syncdir", "map:snapshot.map", "unmap:snapshot.map"} {
		if hits[must] == 0 {
			t.Fatalf("workload never hit site %s — the sweep would not cover it", must)
		}
	}
	// One snapshot from Put, one per compaction: the second compaction
	// folds onto a snapshot the first one already rebased.
	if got := hits["rename:"+mapFile]; got != 3 {
		t.Fatalf("workload renamed %s %d times, want 3 (Put and two compactions)", mapFile, got)
	}
	points := 0
	for _, site := range rec.Sites() {
		for hit := 1; hit <= hits[site]; hit++ {
			kinds := []fault.Kind{fault.KindCrash}
			if strings.HasPrefix(site, "write:") {
				kinds = append(kinds, fault.KindTorn)
			}
			for _, kind := range kinds {
				points++
				label := fmt.Sprintf("%s#%d=%s", site, hit, kind)
				reg := fault.NewRegistry(uint64(points))
				reg.Add(fault.Rule{Site: site, Hit: hit, Kind: kind})
				dir := filepath.Join(t.TempDir(), "data")
				putOK, acked := runCrashScenario(dir, fault.Inject(fault.OS{}, reg))
				verifyRecovery(t, dir, label, putOK, acked)
			}
		}
	}
	t.Logf("swept %d crash points across %d sites", points, len(rec.Sites()))
}

// TestCrashDuringRecoveryTruncate covers the one durable write the
// sweep cannot reach from a healthy run: the WAL-tail truncate that
// recovery itself performs. A torn append leaves a half-record; the
// first reopen crashes exactly at truncate:wal.log; the second reopen
// must still recover cleanly to the acked state.
func TestCrashDuringRecoveryTruncate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	// Hit 1 of write:wal.log is the header in Put; hit 2 is append #1;
	// hit 3 tears append #2 mid-record.
	reg := fault.NewRegistry(1)
	reg.Add(fault.Rule{Site: "write:wal.log", Hit: 3, Kind: fault.KindTorn})
	putOK, acked := runCrashScenario(dir, fault.Inject(fault.OS{}, reg))
	if !putOK || acked != 1 {
		t.Fatalf("setup: putOK=%v acked=%d, want torn second append after 1 ack", putOK, acked)
	}
	// First recovery attempt dies at the truncate.
	crashReg := fault.NewRegistry(2)
	crashReg.Add(fault.Rule{Site: "truncate:wal.log", Kind: fault.KindCrash})
	if _, err := Open(dir, sweepConfig(fault.Inject(fault.OS{}, crashReg))); err == nil {
		t.Fatal("reopen with a crashed truncate unexpectedly succeeded")
	}
	if !crashReg.Crashed() {
		t.Fatal("recovery never reached truncate:wal.log")
	}
	// Second recovery, clean filesystem: full verification.
	verifyRecovery(t, dir, "post-truncate-crash", putOK, acked)
}

// TestAppendRollbackAfterFailedWrite pins the property the service's
// retry loop depends on: a failed append leaves the WAL at its last
// verified length, so retrying the same append succeeds and recovers to
// exactly the retried lineage — no torn first attempt buried in the log.
func TestAppendRollbackAfterFailedWrite(t *testing.T) {
	for _, site := range []string{"write:wal.log", "sync:wal.log"} {
		t.Run(site, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			reg := fault.NewRegistry(1)
			fs := fault.Inject(fault.OS{}, reg)
			s, err := Open(dir, sweepConfig(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			g := line(sweepN)
			lineage := sweepLineage()
			meta := Meta{ID: sweepID(), Name: "sweep", Digest: lineage[0].Digest, N: g.N(), M: g.M()}
			if _, err := s.Put(meta, g, lineage[0]); err != nil {
				t.Fatal(err)
			}
			batch := sweepBatches()[0]
			// Fail the next append once, cleanly (EIO-style, no latch).
			reg.Add(fault.Rule{Site: site, Hit: hitAfter(reg, site) + 1, Kind: fault.KindErr})
			if err := s.Append(meta.ID, batch, lineage[1]); err == nil {
				t.Fatalf("append with injected %s failure unexpectedly succeeded", site)
			}
			// The retry must succeed and the store must reopen to exactly
			// version 1 — the failed attempt's bytes must not survive.
			if err := s.Append(meta.ID, batch, lineage[1]); err != nil {
				t.Fatalf("retried append failed: %v", err)
			}
			s.Close()
			verifyRecovery(t, dir, site+" retry", true, 1)
		})
	}
}

// hitAfter returns the current hit count of site in reg.
func hitAfter(reg *fault.Registry, site string) int {
	return reg.Hits()[site]
}

// FuzzCrashRecovery drives the same workload under arbitrary parsed
// fault specs — mixed clean errors, torn writes, crashes, and
// probabilistic rules — and holds recovery to the sweep's invariants.
func FuzzCrashRecovery(f *testing.F) {
	f.Add("sync:wal.log#3=crash", uint64(1))
	f.Add("write:wal.log#5=torn", uint64(2))
	f.Add("rename:snapshot.map#2=crash", uint64(3))
	f.Add("write:snapshot.map.tmp~0.5=eio", uint64(4))
	f.Add("sync:wal.log~0.3=enospc,rename:wal.log=crash", uint64(5))
	f.Add("rename:snapshot.map#1=crash", uint64(6))
	f.Add("map:snapshot.map=eio", uint64(7))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		reg, err := fault.ParseSpec(spec, seed)
		if err != nil {
			t.Skip()
		}
		dir := filepath.Join(t.TempDir(), "data")
		putOK, acked := runCrashScenario(dir, fault.Inject(fault.OS{}, reg))
		verifyRecovery(t, dir, "spec "+spec, putOK, acked)
	})
}
