package store

import (
	"fmt"

	"repro/internal/graph"
)

// Memory is the in-process Store: the pre-durability behavior of the
// service, now behind the interface. Nothing survives a restart.
type Memory struct {
	records
}

// NewMemory returns an empty in-memory store.
func NewMemory(cfg Config) *Memory {
	return &Memory{records: newRecords(cfg)}
}

func (s *Memory) Put(meta Meta, base graph.View, v0 Version) ([]string, error) {
	snap := graph.MaterializeView(base)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.t.recs[meta.ID]; ok {
		return nil, fmt.Errorf("store: graph %s already present", meta.ID)
	}
	var evicted []string
	for _, r := range s.insertLocked(&record{meta: meta, snap: snap, snapVer: v0}) {
		evicted = append(evicted, r.meta.ID)
	}
	return evicted, nil
}

// Append records the batch in memory only. Batch metadata older than
// the retained window can never be resolved again, so it is dropped and
// lineage bookkeeping stays O(window). The appended edges themselves
// are kept: the base never rebases, so every retained version is an
// overlay of a prefix of them on it.
func (s *Memory) Append(id string, batch []graph.Edge, v Version) error {
	r, err := s.rec(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(batch, v)
	if extra := len(r.batches) - s.cfg.RetainVersions; extra > 0 {
		r.batches = append(r.batches[:0:0], r.batches[extra:]...)
	}
	return nil
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
