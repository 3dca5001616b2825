package service

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/store"
)

// This file is the service's replication surface: the seams internal/repl
// drives. The service itself never talks to the network — the repl layer
// ships batch records and snapshots between nodes, and lands them here,
// where the same validation, engine, storage, and cache machinery that
// backs client appends applies them. Two invariants matter:
//
//   - A replicated record is verified against the chained version digest
//     BEFORE it touches the engine or the store. A flipped bit or a
//     reordered record is rejected (the repl layer re-fetches); it is
//     never applied.
//
//   - A replica refuses client mutations with ErrNotPrimary (421 over
//     HTTP): its store advances only through the feed, so it can never
//     fork from the primary's lineage.

// ErrNotPrimary marks client mutations aimed at a read-only replica. The
// HTTP layer maps it to 421 (Misdirected Request): the request is valid,
// this node is the wrong one — retry against the primary.
var ErrNotPrimary = errors.New("service: not the primary")

// ErrPrecondition marks a conditional append whose expected parent digest
// does not match the graph's current latest version — mapped to 412 so
// clients distinguish "someone else appended first" from a bad request.
var ErrPrecondition = errors.New("service: version precondition failed")

// ReplGraphStatus is one graph's replication position: the local and
// primary latest version numbers and their difference.
type ReplGraphStatus struct {
	ID      string `json:"id"`
	Local   int    `json:"local_version"`
	Primary int    `json:"primary_version"`
	Lag     int    `json:"lag"`
}

// ReplStatus is the replication block of /v1/stats, reported by whichever
// side of the feed this node runs (see SetReplReporter). Lag is measured
// in versions — the only clock the digest chain defines — never in wall
// time.
type ReplStatus struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Primary is the primary's base URL (replica side only).
	Primary string `json:"primary,omitempty"`
	// Connected reports a live feed connection; Bootstrapped that every
	// known graph has a local copy; CaughtUp that the node is connected,
	// bootstrapped, and within LagMax on every graph — the /readyz gate.
	Connected    bool `json:"connected"`
	Bootstrapped bool `json:"bootstrapped"`
	CaughtUp     bool `json:"caught_up"`
	// MaxLag is the worst per-graph lag; LagMax the configured bound.
	MaxLag int `json:"max_lag"`
	LagMax int `json:"lag_max"`
	// Graphs lists per-graph positions, ID order.
	Graphs []ReplGraphStatus `json:"graphs,omitempty"`
	// Shipped counts records the primary wrote to feed streams; Verified
	// and Rejected count records the replica checked against the digest
	// chain (rejected ones were re-fetched, never applied); Reconnects
	// counts feed reconnections; Bootstraps counts snapshot transfers.
	Shipped    int64 `json:"records_shipped"`
	Verified   int64 `json:"records_verified"`
	Rejected   int64 `json:"records_rejected"`
	Reconnects int64 `json:"reconnects"`
	Bootstraps int64 `json:"bootstraps"`
}

// SetReplReporter installs the replication status source — the repl
// layer's Primary or Replica — that /v1/stats and the replica's /readyz
// lag gate read through.
func (s *Service) SetReplReporter(fn func() ReplStatus) {
	s.replFn.Store(&fn)
}

// replStatus reports the installed reporter's view, ok=false when no
// repl layer is attached.
func (s *Service) replStatus() (ReplStatus, bool) {
	p := s.replFn.Load()
	if p == nil {
		return ReplStatus{}, false
	}
	return (*p)(), true
}

// AppendPulse returns a channel closed the next time the service's state
// advances (append, replicated apply, new graph). Feed streams select on
// it instead of polling: wake, re-read the tail, re-arm. Each call
// re-reads the current channel, so a waiter never misses a pulse that
// fired between reads — it just wakes once more and finds nothing new.
func (s *Service) AppendPulse() <-chan struct{} {
	return *s.pulse.Load()
}

// notifyPulse wakes every AppendPulse waiter by closing the current
// channel and installing a fresh one.
func (s *Service) notifyPulse() {
	ch := make(chan struct{})
	old := s.pulse.Swap(&ch)
	close(*old)
}

// Store exposes the storage engine read-side to the repl layer: the
// primary's feed serves Tail batches and snapshot Views straight from it.
func (s *Service) Store() store.Store {
	return s.st
}

// notPrimary gates client mutations on the replica role.
func (s *Service) notPrimary() error {
	if s.cfg.ReplicaOf != "" {
		return fmt.Errorf("%w: this node is a read-only replica of %s", ErrNotPrimary, s.cfg.ReplicaOf)
	}
	return nil
}

// ApplyReplicated lands one shipped batch record on a replica: verify the
// record extends the local chain — version contiguous, digest chains,
// counts consistent — then apply it through the same engine/store/cache
// path a client append takes. Verification precedes every side effect: a
// record that fails is never applied, leaving the local chain exactly as
// it was for the re-fetch. A record at or below the local latest version
// is a duplicate delivery (feed reconnects replay the tail) and succeeds
// as a no-op. Component divergence after a verified apply means the two
// nodes' union-find disagreed on identical inputs — a bug, not a
// transfer error — so the engine is dropped and the record refused
// rather than serving answers that contradict the primary.
func (s *Service) ApplyReplicated(id string, batch []graph.Edge, want VersionInfo) error {
	if err := s.writable(); err != nil {
		return err
	}
	sg, err := s.Graph(id)
	if err != nil {
		return err
	}
	sg.mu.Lock()
	vers, err := s.st.Versions(id)
	if err != nil || len(vers) == 0 {
		sg.mu.Unlock()
		return fmt.Errorf("service: unknown graph %q: %w", id, ErrNotFound)
	}
	prev := vers[len(vers)-1]
	if want.Version <= prev.Version {
		sg.mu.Unlock()
		return nil // duplicate delivery; the local chain already holds it
	}
	if want.Version != prev.Version+1 {
		sg.mu.Unlock()
		return fmt.Errorf("service: replicated record %s@%d does not extend local version %d (gap)", id, want.Version, prev.Version)
	}
	if want.N < prev.N || want.M != prev.M+len(batch) || want.Appended != len(batch) {
		sg.mu.Unlock()
		return fmt.Errorf("service: replicated record %s@%d shape mismatch: n=%d m=%d appended=%d over local n=%d m=%d batch=%d",
			id, want.Version, want.N, want.M, want.Appended, prev.N, prev.M, len(batch))
	}
	if got := store.ChainDigest(prev.Digest, want.N, batch); got != want.Digest {
		sg.mu.Unlock()
		return fmt.Errorf("service: replicated record %s@%d digest mismatch: chained %.12s, shipped %.12s", id, want.Version, got, want.Digest)
	}
	if err := sg.ensureEngineLocked(prev); err != nil {
		sg.mu.Unlock()
		return err
	}
	sg.eng.Apply(batch, want.N-prev.N)
	if comp := sg.eng.Components(); comp != want.Components {
		sg.eng = nil
		sg.mu.Unlock()
		return fmt.Errorf("service: replicated record %s@%d component divergence: local %d, primary %d", id, want.Version, comp, want.Components)
	}
	if err := s.commitLocked(sg, vers, prev, want, batch); err != nil {
		sg.mu.Unlock()
		return err
	}
	sg.mu.Unlock()
	s.counters.edgeBatches.Add(1)
	s.counters.edgesAppended.Add(int64(len(batch)))
	s.notifyPulse()
	return nil
}

// BootstrapReplicated installs a transferred snapshot as a graph's local
// state at the shipped lineage position — how a replica acquires a graph
// it has never seen, or re-acquires one whose catch-up window fell away
// (the feed's batches were compacted on the primary). Any existing local
// copy is replaced wholesale: its lineage is a stale prefix (or, after
// operator error, a fork) of what the snapshot carries, and the digest
// chain of subsequently shipped records extends only the shipped version.
// For a version-0 snapshot the content digest is re-verified against the
// lineage digest here; later versions chain from history the primary
// compacted away, so their integrity rests on the transfer format's own
// digests (verified by the repl layer) plus every subsequent record
// chaining correctly. See store.Store.Put for what the store keeps of
// the snapshot.
func (s *Service) BootstrapReplicated(meta store.Meta, snap graph.View, ver VersionInfo) error {
	if err := s.writable(); err != nil {
		return err
	}
	if ver.Version == 0 {
		if d := store.DigestView(snap); d != ver.Digest {
			return fmt.Errorf("service: bootstrap snapshot %s content digest %.12s does not match lineage digest %.12s", meta.ID, d, ver.Digest)
		}
	}
	if n, m := snap.NumVertices(), snap.NumEdges(); n != ver.N || m != ver.M {
		return fmt.Errorf("service: bootstrap snapshot %s shape (n=%d m=%d) does not match lineage (n=%d m=%d)", meta.ID, n, m, ver.N, ver.M)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.st.Get(meta.ID); ok {
		s.st.Evict(meta.ID)
		s.handles.Delete(meta.ID)
	}
	evicted, err := s.st.Put(meta, snap, ver)
	if err != nil {
		s.enterDegraded(fmt.Errorf("store bootstrap %s: %w", meta.ID, err))
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	for _, eid := range evicted {
		s.handles.Delete(eid)
	}
	if _, ok := s.handleLocked(meta); !ok {
		return fmt.Errorf("service: graph %s evicted under store pressure: %w", meta.ID, ErrNotFound)
	}
	s.notifyPulse()
	return nil
}

// DropReplicated removes a graph the primary no longer serves, reporting
// whether it was present locally.
func (s *Service) DropReplicated(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.st.Evict(id)
	s.handles.Delete(id)
	return ok
}
