package store

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
)

// record is the in-memory state both backends keep per graph: the
// snapshot graph (the base at first; the durable backend rebases it on
// compaction), the edges appended after it, and the lineage metadata of
// every batch still layered on top of the snapshot. A record's own
// mutex guards all mutable fields; the store-level mutex guards the
// id→record table and the LRU bookkeeping.
//
// Lock rule for the disk backend's wal and mapped: they are written
// only while holding both the store mutex and r.mu (a compaction takes
// the store mutex inside r.mu for its swap). Eviction and Close, under
// the store mutex alone, and readers such as View and Append, under
// r.mu alone, therefore each see the old handle or the new one. Neither
// side waits for the other's lock: eviction never takes r.mu, which a
// compaction holds for its whole rewrite.
type record struct {
	mu   sync.Mutex
	meta Meta
	seq  int64 // first-stored order; the durable backend persists it
	used int64 // last-access tick for LRU eviction
	// Exactly one of snap and mapped is set: snap is the resident CSR
	// base (memory backend), mapped the base served off the snapshot
	// file's mapping (disk backend), with wal its open write-ahead log.
	snap    *graph.Graph
	mapped  *mappedHandle
	wal     *walState
	snapVer Version
	// appended holds every post-snapshot edge in append order; batches
	// marks each batch's version metadata and its end offset within
	// appended. Both are append-only between compactions, so slices
	// handed out under the lock stay valid after it is released.
	appended []graph.Edge
	batches  []batchMeta
}

type batchMeta struct {
	v   Version
	off int // len(appended) prefix including this batch
}

// mappedHandle refcounts the mapping behind a disk record's base so it
// is unmapped only after the last reader is done: the record itself
// holds one reference (dropped on eviction, compaction swap, or store
// close), and every View and compaction pins one for its lifetime.
// Without the count, an eviction racing a running solve would unmap
// pages the solver is reading — a SIGSEGV, not an error return.
type mappedHandle struct {
	m    fault.Mapping
	g    *graph.MappedGraph
	refs atomic.Int32
}

func newMappedHandle(m fault.Mapping, g *graph.MappedGraph) *mappedHandle {
	h := &mappedHandle{m: m, g: g}
	h.refs.Store(1) // the owning record's reference
	return h
}

// tryAcquire takes a reference unless the count already hit zero — a
// dead handle stays dead, so a reader that raced an eviction gets a
// clean failure instead of unmapped pages.
func (h *mappedHandle) tryAcquire() bool {
	for {
		c := h.refs.Load()
		if c <= 0 {
			return false
		}
		if h.refs.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// release drops one reference, unmapping at zero. Unmap failures are
// logged, not returned: every reader is already done with the pages,
// so nothing is left to roll back.
func (h *mappedHandle) release() {
	if h.refs.Add(-1) == 0 {
		if err := h.m.Unmap(); err != nil {
			log.Printf("store: unmap snapshot: %v", err)
		}
	}
}

// pinBase returns the snapshot as a View regardless of residency,
// pinned against unmapping until the release func is called. ok=false
// means the caller raced an eviction that already dropped the mapping.
// Callers hold r.mu; the pin is what lets the view outlive the lock.
func (r *record) pinBase() (v graph.View, release func(), ok bool) {
	if r.mapped == nil {
		return r.snap, func() {}, r.snap != nil
	}
	if !r.mapped.tryAcquire() {
		return nil, nil, false
	}
	return r.mapped.g, r.mapped.release, true
}

// window returns the retained version lineage, oldest first: the
// snapshot version plus every batch version, trimmed to retain entries.
func (r *record) window(retain int) []Version {
	out := make([]Version, 0, len(r.batches)+1)
	out = append(out, r.snapVer)
	for _, b := range r.batches {
		out = append(out, b.v)
	}
	if len(out) > retain {
		out = out[len(out)-retain:]
	}
	return out
}

// offOf maps a version number to its prefix of r.appended, restricted
// to the retained window.
func (r *record) offOf(version, retain int) (int, error) {
	w := r.window(retain)
	if len(w) == 0 || version < w[0].Version || version > w[len(w)-1].Version {
		lo, hi := 0, 0
		if len(w) > 0 {
			lo, hi = w[0].Version, w[len(w)-1].Version
		}
		return 0, fmt.Errorf("%w: graph %s version %d not retained (window %d..%d)", ErrNotFound, r.meta.ID, version, lo, hi)
	}
	if version == r.snapVer.Version {
		return 0, nil
	}
	for _, b := range r.batches {
		if b.v.Version == version {
			return b.off, nil
		}
	}
	return 0, fmt.Errorf("%w: graph %s version %d not retained", ErrNotFound, r.meta.ID, version)
}

// deltaLocked returns the edges appended between two retained
// versions; callers hold r.mu.
func (r *record) deltaLocked(from, to, retain int) ([]graph.Edge, error) {
	if from >= to {
		return nil, fmt.Errorf("store: delta %d..%d is not forward", from, to)
	}
	a, err := r.offOf(from, retain)
	if err != nil {
		return nil, err
	}
	b, err := r.offOf(to, retain)
	if err != nil {
		return nil, err
	}
	return r.appended[a:b], nil
}

// tailLocked returns the retained batch records with version > from,
// oldest first — the WAL read-at-version path the replication feed
// serves. from must itself be inside the retained window (or be the
// version just below it, the snapshot base): every shipped batch needs
// its predecessor's end offset, so a from that fell out of the window
// is ErrNotFound — the caller (a replica that fell behind) must
// re-bootstrap from a snapshot instead. The returned edge slices alias
// r.appended, which is append-only between compactions, so they stay
// valid after the lock is released (the same contract deltaLocked
// hands out).
func (r *record) tailLocked(from, retain int) ([]BatchRecord, error) {
	w := r.window(retain)
	if len(w) == 0 {
		return nil, fmt.Errorf("%w: graph %s has no retained versions", ErrNotFound, r.meta.ID)
	}
	latest := w[len(w)-1].Version
	if from > latest {
		return nil, fmt.Errorf("%w: graph %s version %d is beyond latest %d", ErrNotFound, r.meta.ID, from, latest)
	}
	if from < w[0].Version {
		return nil, fmt.Errorf("%w: graph %s version %d not retained (window %d..%d)", ErrNotFound, r.meta.ID, from, w[0].Version, latest)
	}
	out := make([]BatchRecord, 0, latest-from)
	for _, b := range r.batches {
		if b.v.Version <= from {
			continue
		}
		start, err := r.offOf(b.v.Version-1, retain)
		if err != nil {
			return nil, err
		}
		out = append(out, BatchRecord{Info: b.v, Edges: r.appended[start:b.off]})
	}
	return out, nil
}

// infoOf returns the Version metadata of a version number known to be
// in the lineage.
func (r *record) infoOf(version int) Version {
	if version == r.snapVer.Version {
		return r.snapVer
	}
	for _, b := range r.batches {
		if b.v.Version == version {
			return b.v
		}
	}
	return Version{}
}

// viewLocked returns a graph.View of a retained version: the pinned
// base itself for the snapshot version, an Overlay of the appended
// prefix on it otherwise — the same path for the resident CSR (memory
// backend) and the mapped snapshot (disk backend), so no version is
// ever materialized here. The release func unpins the base. Callers
// hold r.mu; the view stays valid after the lock is released — the
// appended array is append-only between compactions, and compaction
// replaces rather than mutates it.
func (r *record) viewLocked(version, retain int) (graph.View, func(), error) {
	off, err := r.offOf(version, retain)
	if err != nil {
		return nil, nil, err
	}
	base, release, ok := r.pinBase()
	if !ok {
		return nil, nil, fmt.Errorf("%w: graph %s evicted", ErrNotFound, r.meta.ID)
	}
	if version == r.snapVer.Version {
		return base, release, nil
	}
	return graph.NewOverlay(base, r.infoOf(version).N, r.appended[:off]), release, nil
}

// appendLocked applies the shared in-memory effect of one batch.
func (r *record) appendLocked(batch []graph.Edge, v Version) {
	r.appended = append(r.appended, batch...)
	r.batches = append(r.batches, batchMeta{v: v, off: len(r.appended)})
}

// table is the id→record bookkeeping both backends share: insertion
// order for List, a monotone access tick for LRU eviction.
type table struct {
	recs  map[string]*record
	order []string
	tick  int64
}

func newTable() *table {
	return &table{recs: make(map[string]*record)}
}

func (t *table) touch(r *record) {
	t.tick++
	r.used = t.tick
}

func (t *table) insert(r *record) {
	t.recs[r.meta.ID] = r
	t.order = append(t.order, r.meta.ID)
	t.touch(r)
}

func (t *table) remove(id string) (*record, bool) {
	r, ok := t.recs[id]
	if !ok {
		return nil, false
	}
	delete(t.recs, id)
	for i, v := range t.order {
		if v == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	return r, true
}

// lruVictim returns the least recently used record's ID.
func (t *table) lruVictim() (string, bool) {
	var victim string
	var best int64
	found := false
	for id, r := range t.recs {
		if !found || r.used < best {
			victim, best, found = id, r.used, true
		}
	}
	return victim, found
}

func (t *table) list() []Meta {
	out := make([]Meta, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.recs[id].meta)
	}
	return out
}

// records is the half of a Store both backends share: the id→record
// table under one mutex, the sizing Config, and every read method,
// which needs nothing but a record and its lock. Memory and Disk embed
// it and add only their write paths.
type records struct {
	mu  sync.Mutex
	cfg Config
	t   *table
}

func newRecords(cfg Config) records {
	return records{cfg: cfg.withDefaults(), t: newTable()}
}

func (s *records) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return Meta{}, false
	}
	s.t.touch(r)
	return r.meta, true
}

func (s *records) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.list()
}

func (s *records) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.t.recs)
}

// rec looks a record up and bumps its recency.
func (s *records) rec(id string) (*record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: graph %s", ErrNotFound, id)
	}
	s.t.touch(r)
	return r, nil
}

// insertLocked adds a new record, then removes least recently used
// records until the table is back within Config.MaxGraphs, returning
// them so the backend can release what they hold. Callers hold s.mu.
func (s *records) insertLocked(r *record) (evicted []*record) {
	s.t.insert(r)
	for s.cfg.MaxGraphs > 0 && len(s.t.recs) > s.cfg.MaxGraphs {
		id, _ := s.t.lruVictim()
		victim, _ := s.t.remove(id)
		evicted = append(evicted, victim)
	}
	return evicted
}

func (s *records) Versions(id string) ([]Version, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window(s.cfg.RetainVersions), nil
}

func (s *records) Delta(id string, from, to int) ([]graph.Edge, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltaLocked(from, to, s.cfg.RetainVersions)
}

func (s *records) Tail(id string, from int) ([]BatchRecord, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(from, s.cfg.RetainVersions)
}

func (s *records) View(id string, version int) (graph.View, func(), error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked(version, s.cfg.RetainVersions)
}
