package store

import (
	"fmt"

	"repro/internal/graph"
)

// Memory is the in-process Store: the pre-durability behavior of the
// service, now behind the interface. Nothing survives a restart. Each
// graph is a resident CSR snapshot plus the batches appended after it,
// compacted on the same cadence as the disk backend.
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

// Append records the batch in memory only, then runs a due compaction
// (records.compact): the snapshot is replaced by a CSR of the window's
// oldest version, so the record holds at most 2×RetainVersions batches.
func (s *Memory) Append(id string, batch []graph.Edge, v Version) error {
	r, err := s.rec(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.appendLocked(batch, v)
	r.mu.Unlock()
	s.compact(r, materializeSnap)
	return nil
}

// materializeSnap is the memory backend's fold: the view of the target
// version becomes the record's resident CSR.
func materializeSnap(r *record, _ Version, v graph.View) error {
	r.snap = graph.MaterializeView(v)
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
