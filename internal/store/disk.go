package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// On-disk layout: one subdirectory per graph ID holding
//
//	snapshot.map   a graph.WCCM1 file with metaJSON embedded in its
//	               header page, served directly off an mmap (or pread)
//	               of the file — the adjacency never becomes
//	               heap-resident
//	wal.log        magic ∥ records, each: uvarint len ∥ payload ∥ SHA-256(payload)
//	               payload = uvarint-len metaJSON(Version) ∥ uvarint count ∥ count × (uvarint u ∥ uvarint v)
//
// Snapshots are written to a temp file, fsync'd, and renamed into place
// — they are never torn. WAL records are fsync'd before Append returns;
// a crash mid-write leaves a torn tail that open detects (by its
// per-record digest) and truncates away, which can only drop an append
// the caller was never told succeeded. On open every surviving record's
// chained version digest is re-verified against the lineage, so silent
// corruption cannot replay into a wrong graph.
const (
	walMagic  = "WCCWAL1\n"
	mapFile   = "snapshot.map"
	walFile   = "wal.log"
	probeFile = ".probe"
	// legacyFile is the varint WCCB1 snapshot earlier versions of the
	// store wrote. It is never read; a directory holding one instead of
	// snapshot.map makes Open fail rather than sweep it as a husk.
	legacyFile = "snapshot.bin"
)

// walState pairs a graph's open WAL handle with the byte length of its
// verified prefix. The length is what makes a failed Append safe to
// retry: the record is rolled back (truncate to size) before the error
// surfaces, so a retried append can never land behind a torn record —
// which replay would otherwise truncate away, losing an acknowledged
// write.
type walState struct {
	f    fault.File
	size int64
	// dirty marks a WAL whose failed append could not be rolled back
	// (the truncate itself failed): its on-disk tail is unknown, so
	// further appends are refused until a reopen re-verifies the file.
	dirty bool
}

// snapMeta is the JSON metadata block of a snapshot file.
type snapMeta struct {
	Meta Meta    `json:"meta"`
	Seq  int64   `json:"seq"`
	Ver  Version `json:"version"` // the version this snapshot materializes
}

// Disk is the durable Store: per-graph snapshot + WAL under one data
// directory, with LRU eviction deleting graph directories and a
// compaction worker that, once a graph's WAL holds a full extra window
// of batches retired from the retained version window, folds them into
// a fresh snapshot — one snapshot rewrite per RetainVersions appends.
type Disk struct {
	records
	dir string
	// fs is the filesystem seam every durable operation goes through
	// (Config.FS; the real OS by default). Chaos tests and wccserve
	// -fault-spec swap in a fault-injected one — the failure model in
	// README.md is proven against the sites this seam names.
	fs fault.FS

	// seq and closed are guarded by records.mu.
	seq    int64
	closed bool

	compactCh chan string
	done      chan struct{}
	wg        sync.WaitGroup
}

// Open loads (or creates) a disk store rooted at dir, verifying every
// snapshot digest and replaying every WAL. A torn WAL tail (crash
// mid-append) is truncated; a corrupt snapshot or a chain-digest
// mismatch is a hard error — the store refuses to serve state it
// cannot vouch for.
func Open(dir string, cfg Config) (*Disk, error) {
	s := &Disk{
		records:   newRecords(cfg),
		dir:       dir,
		compactCh: make(chan string, 64),
		done:      make(chan struct{}),
	}
	s.fs = s.cfg.FS
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []*record
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		rec, err := s.load(ent.Name())
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// A crash between graph-directory creation and the
				// snapshot rename leaves a directory with no snapshot:
				// nothing in it was ever acknowledged (Put acks only after
				// the rename), so sweep the husk instead of refusing to
				// open the whole store. TestCrashPointSweep hits this.
				s.fs.RemoveAll(filepath.Join(dir, ent.Name()))
				continue
			}
			return nil, fmt.Errorf("store: graph %s: %w", ent.Name(), err)
		}
		recs = append(recs, rec)
		if rec.seq >= s.seq {
			s.seq = rec.seq + 1
		}
	}
	// First-stored order survives restarts via the persisted sequence
	// number; recency restarts from that same order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, rec := range recs {
		s.t.insert(rec)
	}
	s.wg.Add(1)
	go s.compactor()
	// A WAL already past the compaction trigger (e.g. killed before a
	// pending compaction) is folded now; one that only holds retired
	// batches below it is left as is — the window hides them.
	for _, rec := range recs {
		s.maybeCompact(rec.meta.ID, rec)
	}
	return s, nil
}

// load reads one graph directory: snapshot, then WAL replay. A
// directory without snapshot.map is a husk (see Open) unless it still
// holds a legacy snapshot.bin: that graph was acknowledged by an
// earlier store version, so load refuses it instead of letting Open
// sweep acknowledged data.
func (s *Disk) load(id string) (*record, error) {
	gdir := filepath.Join(s.dir, id)
	rec, err := s.loadMappedSnapshot(gdir, id)
	if errors.Is(err, os.ErrNotExist) {
		if lerr := s.refuseLegacy(gdir); lerr != nil {
			return nil, lerr
		}
	}
	if err != nil {
		return nil, err
	}
	if rec.wal, err = s.replayWAL(gdir, rec); err != nil {
		rec.mapped.release()
		return nil, err
	}
	return rec, nil
}

// refuseLegacy returns an error if gdir holds a WCCB1 snapshot.bin.
func (s *Disk) refuseLegacy(gdir string) error {
	entries, err := s.fs.ReadDir(gdir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.Name() == legacyFile {
			return fmt.Errorf("legacy WCCB1 snapshot %s found and no %s: this store reads only %s; the directory is left untouched", legacyFile, mapFile, mapFile)
		}
	}
	return nil
}

// loadMappedSnapshot maps and verifies a WCCM1 snapshot.map. All three
// trailer digests, the adjacency range checks, and the offset shape
// are verified by graph.OpenMappedSource in one streaming pass that
// never builds the graph on the heap; the v0 content digest is then
// re-derived the same way.
func (s *Disk) loadMappedSnapshot(gdir, id string) (*record, error) {
	path := filepath.Join(gdir, mapFile)
	m, err := s.fs.Map(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot map: %w", err)
	}
	mg, err := graph.OpenMappedSource(m)
	if err != nil {
		m.Unmap()
		return nil, fmt.Errorf("snapshot map: %w", err)
	}
	var sm snapMeta
	if err := json.Unmarshal(mg.Meta(), &sm); err != nil {
		m.Unmap()
		return nil, fmt.Errorf("snapshot map meta: %w", err)
	}
	if sm.Meta.ID != id {
		m.Unmap()
		return nil, fmt.Errorf("snapshot names graph %s, directory is %s", sm.Meta.ID, id)
	}
	if mg.NumVertices() != sm.Ver.N || mg.NumEdges() != sm.Ver.M {
		m.Unmap()
		return nil, fmt.Errorf("snapshot graph is n=%d m=%d, metadata says n=%d m=%d", mg.NumVertices(), mg.NumEdges(), sm.Ver.N, sm.Ver.M)
	}
	if sm.Ver.Version == 0 && DigestView(mg) != sm.Meta.Digest {
		m.Unmap()
		return nil, fmt.Errorf("snapshot content does not match its digest")
	}
	return &record{meta: sm.Meta, seq: sm.Seq, snapVer: sm.Ver, mapped: newMappedHandle(m, mg)}, nil
}

// openMapped maps a snapshot file this process just wrote and wraps it
// in a refcounted handle. No metadata re-verification: the bytes were
// produced moments ago by MappedWriter (OpenMappedSource still checks
// the digests, which doubles as an end-to-end write check).
func (s *Disk) openMapped(path string) (*mappedHandle, error) {
	m, err := s.fs.Map(path)
	if err != nil {
		return nil, err
	}
	mg, err := graph.OpenMappedSource(m)
	if err != nil {
		m.Unmap()
		return nil, err
	}
	return newMappedHandle(m, mg), nil
}

// writeAtomic replaces path with what write puts in a temp file, via
// fsync + rename, so the file is never torn. A snapshot is streamed
// through write, so it is never held encoded (or as a graph) in memory.
// The leftover .tmp of a failed attempt is removed best-effort — load
// never reads it, so a crash between write and cleanup costs only disk.
func (s *Disk) writeAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.Rename(tmp, path)
}

// replayWAL reads the graph's WAL into rec, truncating a torn tail, and
// returns the file reopened for appending along with its verified length.
func (s *Disk) replayWAL(gdir string, rec *record) (*walState, error) {
	path := filepath.Join(gdir, walFile)
	data, err := s.fs.ReadFile(path)
	if os.IsNotExist(err) {
		// Crash between snapshot write and WAL creation in Put: the
		// graph exists with no appends yet.
		data = nil
	} else if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	good := 0
	if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
		good = len(walMagic)
	} else if len(data) < len(walMagic) && string(data) == walMagic[:len(data)] {
		// A crash between Put's snapshot rename and the completed header
		// write leaves a strict prefix of the magic — a torn write of a
		// file nobody was told exists yet. Recreate it rather than brick
		// the whole store on open.
		data = nil
	} else if len(data) > 0 {
		return nil, fmt.Errorf("wal: bad magic")
	}
	prev := rec.snapVer
	for good < len(data) {
		v, batch, next, ok := DecodeRecord(data, good)
		if !ok {
			// Torn or corrupt tail: everything from here on is a write
			// that never finished (fsync never returned success for it).
			break
		}
		if v.Version <= rec.snapVer.Version {
			// A compaction crash can leave the old WAL beside the new
			// snapshot; batches the snapshot already folded are skipped.
			good = next
			continue
		}
		if v.Version != prev.Version+1 {
			return nil, fmt.Errorf("wal: version %d follows %d (gap)", v.Version, prev.Version)
		}
		if want := ChainDigest(prev.Digest, v.N, batch); v.Digest != want {
			return nil, fmt.Errorf("wal: version %d digest mismatch (chain broken)", v.Version)
		}
		rec.appendLocked(batch, v)
		prev = v
		good = next
	}
	if good == 0 && len(data) == 0 {
		// No WAL at all: create it fresh with its header.
		if err := s.writeWALHeader(path); err != nil {
			return nil, err
		}
		good = len(walMagic)
	} else if good < len(data) {
		if err := s.fs.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("wal truncate: %w", err)
		}
	}
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal reopen: %w", err)
	}
	return &walState{f: f, size: int64(good)}, nil
}

func (s *Disk) writeWALHeader(path string) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBlock reads a uvarint-length-prefixed byte block.
func readBlock(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("block length %d exceeds remaining %d bytes", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := r.Read(out); err != nil {
		return nil, err
	}
	return out, nil
}

func appendBlock(dst, block []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(block)))
	return append(dst, block...)
}

// syncDir flushes directory metadata (renames, creates); best-effort on
// platforms where directories cannot be fsync'd. Compaction's sync
// between its two renames is the exception: it checks the error.
func (s *Disk) syncDir(dir string) {
	s.fs.SyncDir(dir)
}

func (s *Disk) Put(meta Meta, base graph.View, v0 Version) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if _, ok := s.t.recs[meta.ID]; ok {
		return nil, fmt.Errorf("store: graph %s already present", meta.ID)
	}
	gdir := filepath.Join(s.dir, meta.ID)
	if err := s.fs.MkdirAll(gdir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{meta: meta, seq: s.seq, snapVer: v0}
	s.seq++
	// Stream the WCCM1 snapshot, then serve off its mapping — the
	// caller's base is not retained.
	metaRaw, err := json.Marshal(snapMeta{Meta: meta, Seq: rec.seq, Ver: v0})
	if err != nil {
		return nil, err
	}
	mpath := filepath.Join(gdir, mapFile)
	if err := s.writeAtomic(mpath, func(w io.Writer) error {
		return graph.WriteMappedView(w, base, base.NumVertices(), nil, metaRaw)
	}); err != nil {
		return nil, err
	}
	if rec.mapped, err = s.openMapped(mpath); err != nil {
		return nil, err
	}
	// From here on a failure must drop the mapping the record just took.
	fail := func(err error) ([]string, error) {
		rec.mapped.release()
		return nil, err
	}
	walPath := filepath.Join(gdir, walFile)
	if err := s.writeWALHeader(walPath); err != nil {
		return fail(err)
	}
	s.syncDir(gdir)
	s.syncDir(s.dir)
	wal, err := s.fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	rec.wal = &walState{f: wal, size: int64(len(walMagic))}
	var evicted []string
	for _, r := range s.insertLocked(rec) {
		s.dropLocked(r)
		evicted = append(evicted, r.meta.ID)
	}
	return evicted, nil
}

func (s *Disk) Append(id string, batch []graph.Edge, v Version) error {
	r, err := s.rec(id)
	if err != nil {
		return err
	}
	data, err := EncodeRecord(v, batch)
	if err != nil {
		return err
	}
	// r.wal is read under the record lock alone: a compaction swaps it
	// holding r.mu too, so ws's fields are stable for the rest of this
	// critical section (see record's lock rule).
	r.mu.Lock()
	ws := r.wal
	if ws.dirty {
		r.mu.Unlock()
		return fmt.Errorf("store: wal for %s in unknown state after a failed rollback; reopen the store to re-verify it", id)
	}
	if _, err := ws.f.Write(data); err != nil {
		err = s.appendFailed(id, r, fmt.Errorf("store: wal append: %w", err))
		r.mu.Unlock()
		return err
	}
	if err := ws.f.Sync(); err != nil {
		err = s.appendFailed(id, r, fmt.Errorf("store: wal fsync: %w", err))
		r.mu.Unlock()
		return err
	}
	ws.size += int64(len(data))
	r.appendLocked(batch, v)
	r.mu.Unlock()
	s.maybeCompact(id, r)
	return nil
}

// appendFailed handles a failed WAL write or fsync. If the record was
// evicted (or the store closed) meanwhile, the handle was closed under
// the append: the graph is gone, which is ErrNotFound, not a storage
// failure, and there is nothing to roll back. Otherwise the WAL is
// restored to its last verified length, so the caller may retry:
// without the truncate, the retried record would land behind the torn
// bytes of the failed one, and replay would cut both away — silently
// losing a write the retry acknowledged. The handle is O_APPEND, so
// after the truncate the next write lands at the restored end; no
// reopen is needed. If the rollback itself fails, the WAL tail is
// unknown and the state is marked dirty: every further append is
// refused until a store reopen re-verifies the file record by record.
// Callers hold r.mu.
func (s *Disk) appendFailed(id string, r *record, err error) error {
	s.mu.Lock()
	gone := s.t.recs[id] != r
	s.mu.Unlock()
	if gone {
		return fmt.Errorf("%w: graph %s evicted during append", ErrNotFound, id)
	}
	ws := r.wal
	path := filepath.Join(s.dir, id, walFile)
	if terr := s.fs.Truncate(path, ws.size); terr != nil {
		ws.dirty = true
		log.Printf("store: wal rollback for %s to %d bytes failed: %v (appends disabled until reopen)", id, ws.size, terr)
	}
	return err
}

// maybeCompact schedules (or, with SyncCompaction, runs) a compaction
// once the graph's WAL holds a full extra window of retired batches —
// the snapshot plus its batches span more than 2×RetainVersions
// versions. A compaction rewrites the whole snapshot, so waiting for a
// full window pays for it once per RetainVersions appends, while the
// record, the WAL replay and every overlay stay bounded by
// 2×RetainVersions batches. Retired batches are unreadable either way:
// retention is the window, not the compaction.
func (s *Disk) maybeCompact(id string, r *record) {
	r.mu.Lock()
	over := len(r.batches)+1 > 2*s.cfg.RetainVersions
	r.mu.Unlock()
	if !over {
		return
	}
	if s.cfg.SyncCompaction {
		s.logCompact(id)
		return
	}
	select {
	case s.compactCh <- id:
	default: // worker busy and queue full; the next append re-triggers
	}
}

// logCompact runs one compaction and reports failures: the files stay
// valid on error, but the operator must hear about a WAL that cannot
// shrink.
func (s *Disk) logCompact(id string) {
	if err := s.compact(id); err != nil {
		log.Printf("store: compact %s: %v", id, err)
	}
}

func (s *Disk) compactor() {
	defer s.wg.Done()
	for {
		select {
		case id := <-s.compactCh:
			s.logCompact(id)
		case <-s.done:
			return
		}
	}
}

// compact folds every WAL batch older than the retained window into a
// fresh snapshot at the window's oldest version, then rewrites the WAL
// with only the remaining batches. Runs under the record lock: appends
// to this graph stall for one streamed snapshot write + one WAL
// rewrite, other graphs are unaffected. Crash-safe: the snapshot lands
// first and its rename is made durable (old WAL records it already
// covers are skipped on open by their version), the WAL rename second.
// A failure leaves the pre-compaction files fully valid — the error is
// reported so a persistently failing compaction (ENOSPC) is visible
// instead of a silently growing WAL.
func (s *Disk) compact(id string) error {
	s.mu.Lock()
	r, ok := s.t.recs[id]
	s.mu.Unlock()
	if !ok {
		return nil // evicted while queued
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.window(s.cfg.RetainVersions)
	target := w[0]
	if target.Version == r.snapVer.Version {
		return nil
	}
	// Pin the base for the whole compaction: a concurrent eviction may
	// drop the store's reference on the mapping mid-stream, and these
	// scans must keep their pages until done.
	base, unpin, ok := r.pinBase()
	if !ok {
		return nil // evicted; nothing left to compact
	}
	defer unpin()
	gdir := filepath.Join(s.dir, id)
	targetOff, err := r.offOf(target.Version, s.cfg.RetainVersions)
	if err != nil {
		return err
	}
	// Stream base ∪ pre-window batches straight into a new WCCM1 file —
	// the compaction never materializes the graph, so folding a snapshot
	// larger than RAM stays O(n+delta).
	metaRaw, err := json.Marshal(snapMeta{Meta: r.meta, Seq: r.seq, Ver: target})
	if err != nil {
		return fmt.Errorf("encode snapshot meta: %w", err)
	}
	mpath := filepath.Join(gdir, mapFile)
	if err := s.writeAtomic(mpath, func(w io.Writer) error {
		return graph.WriteMappedView(w, base, target.N, r.appended[:targetOff], metaRaw)
	}); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	// The snapshot rename must be durable before the WAL rename: a power
	// loss that kept only the second would leave the old snapshot beside
	// a WAL starting past its version — a gap Open refuses. So this sync
	// is not best-effort: on failure the old WAL stays, which the new
	// snapshot recovers with (its covered records are skipped by
	// version), and the in-memory record is not swapped.
	if err := s.fs.SyncDir(gdir); err != nil {
		return fmt.Errorf("sync snapshot rename: %w", err)
	}
	newHandle, err := s.openMapped(mpath)
	if err != nil {
		return fmt.Errorf("map snapshot: %w", err)
	}
	// A failure past this point keeps the old record state; the freshly
	// mapped handle must not leak.
	fail := func(err error) error {
		newHandle.release()
		return err
	}
	// Rewrite the WAL with the batches the new snapshot does not cover.
	walData := []byte(walMagic)
	var kept []batchMeta
	prevOff := 0
	for _, b := range r.batches {
		if b.v.Version > target.Version {
			recData, err := EncodeRecord(b.v, r.appended[prevOff:b.off])
			if err != nil {
				return fail(fmt.Errorf("encode wal record %d: %w", b.v.Version, err))
			}
			walData = append(walData, recData...)
			kept = append(kept, batchMeta{v: b.v, off: b.off - targetOff})
		}
		prevOff = b.off
	}
	if err := s.writeAtomic(filepath.Join(gdir, walFile), func(w io.Writer) error {
		_, err := w.Write(walData)
		return err
	}); err != nil {
		return fail(fmt.Errorf("write wal: %w", err))
	}
	s.syncDir(gdir)
	newWal, err := s.fs.OpenFile(filepath.Join(gdir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("reopen wal: %w", err))
	}
	// Swap in-memory state, the WAL handle and the mapping under both
	// locks (record's lock rule). The old appended array stays untouched
	// so Delta slices handed out before the compaction remain valid, and
	// the old mapping is only unmapped once every view pinned on it has
	// released.
	s.mu.Lock()
	if s.t.recs[id] != r {
		s.mu.Unlock()
		// Evicted mid-compaction (or the store closed): that already
		// closed the old WAL and released the record's reference on the
		// old mapping; the fresh WAL handle and mapping are orphans.
		newWal.Close()
		newHandle.release()
		return nil
	}
	oldWal, oldHandle := r.wal, r.mapped
	r.wal = &walState{f: newWal, size: int64(len(walData))}
	r.mapped = newHandle
	s.mu.Unlock()
	oldWal.f.Close()
	oldHandle.release()
	r.snapVer = target
	r.appended = append([]graph.Edge(nil), r.appended[targetOff:]...)
	r.batches = kept
	return nil
}

// Evict drops the graph and deletes its directory, snapshot.map first:
// a directory left without it, because the removal of the rest failed,
// is a husk the next Open sweeps. Only a failed unlink of snapshot.map
// itself, with the directory removal failing too, leaves the evicted
// graph on disk for the next Open to serve again.
func (s *Disk) Evict(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.remove(id)
	if ok {
		s.dropLocked(r)
	}
	return ok
}

// dropLocked finishes evicting a record already removed from the table:
// it closes the WAL, releases the store's reference on the mapping
// (in-flight views keep theirs; the pages unmap at the last release),
// and deletes the directory, unlinking snapshot.map first so that a
// failed removal leaves a husk rather than a graph (see Evict) —
// unlinking a still-mapped file is safe, the mapping holds the pages.
// Callers hold s.mu.
func (s *Disk) dropLocked(r *record) {
	r.wal.f.Close()
	r.mapped.release()
	gdir := filepath.Join(s.dir, r.meta.ID)
	s.fs.Remove(filepath.Join(gdir, mapFile))
	s.fs.RemoveAll(gdir)
}

// Probe checks whether the backing filesystem accepts durable writes
// again: create, write, fsync, and remove a scratch file under the data
// directory through the same seam every real write uses. The service's
// degraded mode calls it to decide when a store that reported
// persistent write failure is safe to reopen for mutations.
func (s *Disk) Probe() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("store: closed")
	}
	path := filepath.Join(s.dir, probeFile)
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: probe create: %w", err)
	}
	if _, err := f.Write([]byte("ok\n")); err != nil {
		f.Close()
		s.fs.Remove(path)
		return fmt.Errorf("store: probe write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(path)
		return fmt.Errorf("store: probe fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(path)
		return fmt.Errorf("store: probe close: %w", err)
	}
	s.fs.Remove(path)
	return nil
}

// Close stops the compaction worker, closes every WAL handle, releases
// the store's reference on every mapping, and drops every record: a
// closed store holds no graphs. All acknowledged appends are already
// fsync'd, so Close loses nothing.
func (s *Disk) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, r := range s.t.recs {
		if err := r.wal.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		r.mapped.release()
	}
	s.t = newTable()
	return firstErr
}
