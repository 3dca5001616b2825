package store

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Memory is the in-process Store: the pre-durability behavior of the
// service, now behind the interface. Nothing survives a restart.
type Memory struct {
	mu  sync.Mutex
	cfg Config
	t   *table
}

// NewMemory returns an empty in-memory store.
func NewMemory(cfg Config) *Memory {
	return &Memory{cfg: cfg.withDefaults(), t: newTable()}
}

func (s *Memory) Put(meta Meta, base graph.View, v0 Version) ([]string, error) {
	snap := graph.MaterializeView(base)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.t.recs[meta.ID]; ok {
		return nil, fmt.Errorf("store: graph %s already present", meta.ID)
	}
	s.t.insert(&record{meta: meta, snap: snap, snapVer: v0})
	var evicted []string
	for s.cfg.MaxGraphs > 0 && len(s.t.recs) > s.cfg.MaxGraphs {
		id, ok := s.t.lruVictim()
		if !ok {
			break
		}
		s.t.remove(id)
		evicted = append(evicted, id)
	}
	return evicted, nil
}

func (s *Memory) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return Meta{}, false
	}
	s.t.touch(r)
	return r.meta, true
}

func (s *Memory) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.list()
}

func (s *Memory) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.t.recs)
}

// rec looks a record up and bumps its recency.
func (s *Memory) rec(id string) (*record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: graph %s", ErrNotFound, id)
	}
	s.t.touch(r)
	return r, nil
}

func (s *Memory) Append(id string, batch []graph.Edge, v Version) error {
	r, err := s.rec(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(batch, v)
	// Batch metadata older than the retained window can never be
	// resolved again; drop it so lineage bookkeeping stays O(window).
	// The appended edges themselves are kept — the latest snapshot
	// still materializes from the immutable base.
	if extra := len(r.batches) - s.cfg.RetainVersions; extra > 0 {
		r.batches = append(r.batches[:0:0], r.batches[extra:]...)
	}
	return nil
}

func (s *Memory) Versions(id string) ([]Version, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window(s.cfg.RetainVersions), nil
}

func (s *Memory) Delta(id string, from, to int) ([]graph.Edge, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltaLocked(from, to, s.cfg.RetainVersions)
}

func (s *Memory) Tail(id string, from int) ([]BatchRecord, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(from, s.cfg.RetainVersions)
}

func (s *Memory) Materialize(id string, version int) (*graph.Graph, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.materializeLocked(version, s.cfg.RetainVersions)
}

func (s *Memory) View(id string, version int) (graph.View, func(), error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked(version, s.cfg.RetainVersions)
}

func (s *Memory) Evict(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.t.remove(id)
	return ok
}

// Probe trivially succeeds: memory writes cannot fail persistently.
func (s *Memory) Probe() error { return nil }

func (s *Memory) Close() error { return nil }
