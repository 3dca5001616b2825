package service

import (
	"errors"
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/store"
)

// VersionInfo describes one retained version of a stored graph. Version 0
// is the immutable base snapshot; every accepted edge batch bumps the
// version and chains a fresh digest, so (version digest, algo, seed, λ,
// memory) uniquely addresses a labeling across the graph's whole history.
// It is the storage engine's lineage entry verbatim — the store retains
// the window and its chained digests, the service only interprets them.
type VersionInfo = store.Version

// versionRef pairs a retained version's metadata with the decoded form
// of its digest — exactly the bytes labelingKey wants — so the query
// path never re-decodes hex per request.
type versionRef struct {
	info VersionInfo
	key  [sha256Len]byte
}

// versionWindow is an immutable snapshot of a graph's retained version
// window, oldest first. One lives behind each handle's atomic pointer:
// queries resolve versions against it with a single pointer load instead
// of a storage-engine round trip per request (the store mutex was one of
// the global serialization points on the old read path). It is refreshed
// under the append lock whenever the lineage changes, and built lazily
// from the store the first time a fresh handle (post-restart, post-
// eviction-reload) needs it.
type versionWindow struct {
	refs []versionRef
}

func newVersionWindow(vers []VersionInfo) *versionWindow {
	w := &versionWindow{refs: make([]versionRef, len(vers))}
	for i, info := range vers {
		w.refs[i] = versionRef{info: info, key: decodeDigest(info.Digest)}
	}
	return w
}

// latest returns the newest ref; ok=false for an empty window.
func (w *versionWindow) latest() (versionRef, bool) {
	if w == nil || len(w.refs) == 0 {
		return versionRef{}, false
	}
	return w.refs[len(w.refs)-1], true
}

// loadWindow returns the handle's version snapshot, fetching it from the
// store on first use. After that first use the answer is one atomic
// pointer load.
//
//wcc:hotpath
func (sg *StoredGraph) loadWindow() *versionWindow {
	if w := sg.window.Load(); w != nil {
		return w
	}
	return sg.fetchWindow()
}

// fetchWindow builds the window snapshot from the store — the once-per-
// handle slow path of loadWindow. The fetch can race with an append
// publishing a newer window; publishWindow resolves that monotonically.
//
//wcc:coldpath
func (sg *StoredGraph) fetchWindow() *versionWindow {
	vers, err := sg.svc.st.Versions(sg.ID)
	if err != nil || len(vers) == 0 {
		return nil
	}
	return sg.publishWindow(newVersionWindow(vers))
}

// publishWindow installs w unless a newer window (higher latest version)
// is already visible — a lazy store fetch must never roll back a window
// a concurrent append just published. Returns the window that won.
func (sg *StoredGraph) publishWindow(w *versionWindow) *versionWindow {
	for {
		old := sg.window.Load()
		if old != nil && len(old.refs) > 0 && len(w.refs) > 0 &&
			old.refs[len(old.refs)-1].info.Version >= w.refs[len(w.refs)-1].info.Version {
			return old
		}
		if sg.window.CompareAndSwap(old, w) {
			return w
		}
	}
}

// LatestVersion returns the newest version number.
func (sg *StoredGraph) LatestVersion() int {
	return sg.Latest().Version
}

// Latest returns the newest version's metadata (the zero VersionInfo if
// the graph was evicted from the store underneath this handle).
func (sg *StoredGraph) Latest() VersionInfo {
	ref, ok := sg.loadWindow().latest()
	if !ok {
		return VersionInfo{}
	}
	return ref.info
}

// Versions returns the retained version window, oldest first. Older
// versions have been dropped (bounded retention); their labelings may
// still sit in the cache but can no longer be fast-forwarded or re-solved.
func (sg *StoredGraph) Versions() []VersionInfo {
	w := sg.loadWindow()
	if w == nil {
		return nil
	}
	out := make([]VersionInfo, len(w.refs))
	for i, ref := range w.refs {
		out[i] = ref.info
	}
	return out
}

// resolveVersion maps a SolveSpec.Version (negative = latest) to retained
// version metadata, answered entirely from the handle's window snapshot —
// no store call, no allocation. Unknown or no-longer-retained versions
// are ErrNotFound: the service cannot answer for state it no longer
// holds.
func (sg *StoredGraph) resolveVersion(version int) (versionRef, error) {
	w := sg.loadWindow()
	if w == nil || len(w.refs) == 0 {
		return versionRef{}, fmt.Errorf("service: unknown graph %q: %w", sg.ID, ErrNotFound)
	}
	if version < 0 {
		return w.refs[len(w.refs)-1], nil
	}
	for i := range w.refs {
		if w.refs[i].info.Version == version {
			return w.refs[i], nil
		}
	}
	return versionRef{}, fmt.Errorf("service: graph %s version %d not retained (window %d..%d): %w",
		sg.ID, version, w.refs[0].info.Version, w.refs[len(w.refs)-1].info.Version, ErrNotFound)
}

// ensureEngineLocked (re)builds the incremental engine from the store's
// view of the latest version — on the durable backend the snapshot's
// mapped pages, so seeding never builds (or pins) a heap CSR. Handles
// start engineless — after a restart or an eviction/reload cycle — and
// pay the O(mα) seed once, on the first append. Callers hold sg.mu.
func (sg *StoredGraph) ensureEngineLocked(latest VersionInfo) error {
	if sg.eng != nil {
		return nil
	}
	v, release, err := sg.svc.st.View(sg.ID, latest.Version)
	if err != nil {
		return err
	}
	sg.eng = dynamic.FromGraph(v)
	release()
	return nil
}

// Append absorbs one edge batch into the stored graph, bumping its
// version. Endpoints must lie in [0, N) of the current version unless
// grow is true, in which case endpoints up to MaxVertices-1 extend the
// vertex set with isolated newcomers first. Appends serialize per graph;
// the batch and its chained version metadata are handed to the storage
// engine (the durable backend fsyncs before acknowledging) before the
// in-memory engine advances, so a storage failure never leaves the
// engine ahead of durable state. The handle's version window is
// republished before the append lock releases, so queries resolve the
// new version without a store round trip. Cached labelings of the
// previous latest version are fast-forwarded to the new version in
// place (an incremental merge), so the O(1) query path keeps answering
// without a re-solve.
func (s *Service) Append(id string, batch []graph.Edge, grow bool) (VersionInfo, error) {
	info, _, err := s.AppendExpect(id, batch, grow, "")
	return info, err
}

// AppendExpect is Append with an optional version precondition: a
// non-empty expect is the digest of the version the caller observed and
// means "append onto exactly this parent". Three outcomes:
//
//   - expect matches the latest digest: the append proceeds (applied
//     true) — no concurrent writer slipped in between observe and append.
//   - expect matches the PREVIOUS version's digest and chaining this
//     batch onto it reproduces the latest digest: this exact batch
//     already landed — a retry of an append whose response was lost. The
//     existing latest version is returned with applied false; nothing is
//     written twice.
//   - anything else: ErrPrecondition (412) — the lineage moved on, the
//     caller re-reads and decides.
//
// The precondition is what makes retrying appends over a lossy network
// safe: "at-least-once delivery, exactly-once apply".
func (s *Service) AppendExpect(id string, batch []graph.Edge, grow bool, expect string) (VersionInfo, bool, error) {
	if err := s.notPrimary(); err != nil {
		return VersionInfo{}, false, err
	}
	if err := s.writable(); err != nil {
		return VersionInfo{}, false, err
	}
	sg, err := s.Graph(id)
	if err != nil {
		return VersionInfo{}, false, err
	}

	sg.mu.Lock()
	vers, err := s.st.Versions(id)
	if err != nil || len(vers) == 0 {
		sg.mu.Unlock()
		return VersionInfo{}, false, fmt.Errorf("service: unknown graph %q: %w", id, ErrNotFound)
	}
	prev := vers[len(vers)-1]
	if expect != "" && expect != prev.Digest {
		// Retry detection: did this exact batch, chained onto the version
		// the caller observed, produce the current latest? Then the
		// "failed" attempt actually landed and this is its retry.
		if len(vers) >= 2 && vers[len(vers)-2].Digest == expect &&
			store.ChainDigest(expect, prev.N, batch) == prev.Digest {
			sg.mu.Unlock()
			return prev, false, nil
		}
		sg.mu.Unlock()
		return VersionInfo{}, false, fmt.Errorf("%w: expected parent digest %.12s, latest is %.12s (version %d)",
			ErrPrecondition, expect, prev.Digest, prev.Version)
	}

	// Validate the batch against the current version under the lock:
	// concurrent appends may have changed N since the caller parsed it.
	newN := prev.N
	for _, e := range batch {
		if e.U < 0 || e.V < 0 {
			sg.mu.Unlock()
			return VersionInfo{}, false, fmt.Errorf("service: negative batch endpoint (%d,%d)", e.U, e.V)
		}
		hi := int(max(e.U, e.V))
		if hi >= newN {
			if !grow {
				sg.mu.Unlock()
				return VersionInfo{}, false, fmt.Errorf("service: batch endpoint %d out of range [0,%d) (append with grow to extend)", hi, prev.N)
			}
			newN = hi + 1
		}
	}
	if s.cfg.MaxVertices >= 0 && newN > s.cfg.MaxVertices {
		sg.mu.Unlock()
		return VersionInfo{}, false, fmt.Errorf("service: append would grow graph to %d vertices, limit %d", newN, s.cfg.MaxVertices)
	}
	if s.cfg.MaxEdges >= 0 && prev.M+len(batch) > s.cfg.MaxEdges {
		sg.mu.Unlock()
		return VersionInfo{}, false, fmt.Errorf("service: append would grow graph to %d edges, limit %d", prev.M+len(batch), s.cfg.MaxEdges)
	}

	if err := sg.ensureEngineLocked(prev); err != nil {
		sg.mu.Unlock()
		return VersionInfo{}, false, err
	}
	merges := sg.eng.Apply(batch, newN-prev.N)
	info := VersionInfo{
		Version:    prev.Version + 1,
		Digest:     store.ChainDigest(prev.Digest, newN, batch),
		N:          newN,
		M:          prev.M + len(batch),
		Appended:   len(batch),
		Merges:     merges,
		Components: sg.eng.Components(),
	}
	if err := s.commitLocked(sg, vers, prev, info, batch); err != nil {
		sg.mu.Unlock()
		return VersionInfo{}, false, err
	}
	sg.mu.Unlock()

	s.counters.edgeBatches.Add(1)
	s.counters.edgesAppended.Add(int64(len(batch)))
	s.notifyPulse()
	return info, true, nil
}

// commitLocked persists one batch the engine has already absorbed —
// info chains onto prev, the last entry of vers — then fast-forwards
// cached labelings and republishes the version window. It is the shared
// tail of client appends and replicated applies. The caller holds sg.mu;
// on error the engine handle is dropped (it ran ahead of the store) so
// the next mutation reseeds from the store's actual state.
func (s *Service) commitLocked(sg *StoredGraph, vers []VersionInfo, prev, info VersionInfo, batch []graph.Edge) error {
	// Transient storage failures (a flaky fsync, a momentary ENOSPC) are
	// retried with jittered backoff before the append is failed: the
	// store rolls a failed record back to the last verified WAL length,
	// which is what makes the retry safe — the record can never land
	// behind its own torn first attempt. A missing graph is not
	// transient; retrying it would only stall the 404.
	retries, err := s.appendRetry.Do(
		func() error { return s.st.Append(sg.ID, batch, info) },
		func(err error) bool { return !errors.Is(err, store.ErrNotFound) },
	)
	if retries > 0 {
		s.counters.storeRetries.Add(int64(retries))
	}
	if err != nil {
		// The engine ran ahead of the (not-)stored batch; drop it so the
		// next append reseeds from the store's actual state.
		sg.eng = nil
		if !errors.Is(err, store.ErrNotFound) {
			// Retries exhausted on a write failure: the store cannot
			// currently persist, so stop accepting mutations instead of
			// burning every future request through the same retry storm.
			// The triggering request reports the same 503 every later
			// write will see, not a misleading client error.
			s.enterDegraded(fmt.Errorf("store append %s: %w", sg.ID, err))
			return fmt.Errorf("%w: %w", ErrDegraded, err)
		}
		return err
	}
	// Eagerly fast-forward the previous version's cached labelings so
	// queries stay O(1) across the append — BEFORE the new window is
	// published, and still under the append lock. The ordering is what
	// keeps latest-version queries hit-path-only under churn: once a
	// query can resolve the new version, its labeling is already cached
	// (eviction permitting); and because appends serialize here, the next
	// append always sees this version's labelings when it sweeps
	// withDigestPrefix. Queries never take sg.mu, so the longer critical
	// section delays only sibling appends, which serialize anyway.
	s.forwardCached(prev.Digest, info, batch)
	// Republish the window snapshot with the same retention the store
	// applies, so queries see the new version (and stop seeing trimmed
	// ones) without a store call.
	vers = append(vers, info)
	if keep := s.cfg.MaxVersionGap + 1; len(vers) > keep {
		vers = vers[len(vers)-keep:]
	}
	sg.publishWindow(newVersionWindow(vers))
	return nil
}

// forwardCached fast-forwards every cached labeling of the version with
// digest prevDigest across one appended batch to the target version.
// Labelings that share a partition share its forward: each distinct
// partition is forwarded once, and each labeling only gets a new header.
func (s *Service) forwardCached(prevDigest string, target VersionInfo, batch []graph.Edge) {
	targetKey := decodeDigest(target.Digest)
	// A version holds few distinct partitions, usually one; a failed
	// forward is remembered as a nil target so it is not retried.
	type forward struct{ from, to *partition }
	var done []forward
	for _, l := range s.cache.withDigestPrefix(prevDigest) {
		i := 0
		for i < len(done) && done[i].from != l.partition {
			i++
		}
		if i == len(done) {
			to, _ := s.forwardPartition(l.partition, batch, target) // nil on failure
			done = append(done, forward{l.partition, to})
		}
		if done[i].to == nil {
			continue
		}
		if fwd, ok := s.forwardHeader(l, target.Version, targetKey, done[i].to); ok {
			s.cache.put(fwd)
			s.counters.incrementalMerges.Add(1)
		}
	}
}

// forwardPartition carries a partition across appended edges to the
// target version. Components only merge, so if the target has as many
// components as p and no new vertex, nothing merged and the target
// shares p itself — no pass over the vertices at all. Otherwise the
// partition is relabeled by dynamic.MergePartition, and its component
// count is checked against the target's (the engine's count): a
// disagreement is counted and logged as a partition mismatch and the
// forward refused.
func (s *Service) forwardPartition(p *partition, batch []graph.Edge, target VersionInfo) (*partition, error) {
	if target.N == len(p.labels) && target.Components == p.Components {
		s.counters.partitionShares.Add(1)
		return p, nil
	}
	labels, sizes, err := dynamic.MergePartition(p.labels, p.sizes, batch, target.N)
	if err != nil {
		return nil, err
	}
	s.counters.partitionRelabels.Add(1)
	if len(sizes) != target.Components {
		return nil, s.partitionMismatch(fmt.Errorf("forwarding to version %d reached %d components, the version records %d",
			target.Version, len(sizes), target.Components))
	}
	return newPartition(labels, sizes), nil
}

// forwardHeader derives the labeling of the target version (whose
// decoded digest the caller supplies for the new cache key) from a
// labeling of an earlier version: the same configuration, pointing at
// the forwarded partition p.
func (s *Service) forwardHeader(l *Labeling, version int, targetKey [sha256Len]byte, p *partition) (*Labeling, bool) {
	spec := SolveSpec{Algo: l.Algo, Lambda: l.Lambda, Seed: l.Seed, Memory: l.Memory}
	key, ok := s.cacheKey(targetKey, spec)
	if !ok {
		return nil, false // the algorithm vanished from the registry
	}
	return &Labeling{
		GraphID:   l.GraphID,
		Version:   version,
		Algo:      l.Algo,
		Seed:      l.Seed,
		Lambda:    l.Lambda,
		Memory:    l.Memory,
		Rounds:    l.Rounds, // cost of the original solve; the merge charged none
		PeakEdges: l.PeakEdges,
		Forwarded: true,
		key:       key,
		partition: p,
	}, true
}

// fastForward tries to derive the labeling of the target version from a
// cached labeling of an earlier retained version of the same graph,
// replaying the retained appended batches (store.Delta) through
// forwardPartition — the append path's forward, so there is one. It
// walks nearest-first, so the replay spans as few batches as possible.
// Success caches the forwarded labeling under the target digest (through
// internLabeling, so it shares and is checked against any partition
// already cached there) and counts one incremental merge; failure
// (nothing cached inside the retention window) means the caller
// re-solves through the registry — exactly the version-gap fallback the
// config threshold describes.
//
//wcc:coldpath
func (s *Service) fastForward(sg *StoredGraph, target versionRef, spec SolveSpec) (*Labeling, bool) {
	w := sg.loadWindow()
	if w == nil {
		return nil, false
	}
	for i := len(w.refs) - 1; i >= 0; i-- {
		v := w.refs[i]
		if v.info.Version >= target.info.Version {
			continue
		}
		if target.info.Version-v.info.Version > s.cfg.MaxVersionGap {
			break
		}
		key, ok := s.cacheKey(v.key, spec)
		if !ok {
			return nil, false
		}
		l, ok := s.cache.get(key)
		if !ok {
			continue
		}
		delta, err := s.st.Delta(sg.ID, v.info.Version, target.info.Version)
		if err != nil {
			continue
		}
		p, err := s.forwardPartition(l.partition, delta, target.info)
		if err != nil {
			continue
		}
		fwd, ok := s.forwardHeader(l, target.info.Version, target.key, p)
		if !ok || s.internLabeling(fwd) != nil {
			return nil, false
		}
		s.counters.incrementalMerges.Add(1)
		return fwd, true
	}
	return nil, false
}
