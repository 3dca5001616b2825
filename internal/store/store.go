// Package store is the storage engine behind the connectivity service:
// an explicit, swappable subsystem owning every stored graph — the
// immutable base snapshot, the append-only edge-batch tail, and the
// version lineage with its chained digests — behind one Store
// interface with two backends.
//
// Memory (NewMemory) is the original in-process map: nothing survives a
// restart. Disk (Open) is durable: each graph keeps a WCCM1 snapshot
// file, served straight off its mapping, plus an fsync'd append-only
// write-ahead log of edge batches, both digest-verified on open, with
// compaction folding retired WAL batches into a fresh snapshot once a
// full extra retained window of them has piled up. A wccserve restarted
// on the same data directory rebuilds the exact graphs, versions, and
// digests it served before the kill.
//
// Both backends share the same semantics, enforced by one conformance
// suite: content-addressed records, LRU eviction by last access under
// Config.MaxGraphs, a retained version window of Config.RetainVersions
// entries, and materialization of any retained version. The service
// layer (internal/service) holds no graph state of its own — every
// graph byte it serves flows through this interface.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ErrNotFound marks lookups of graphs (or versions) the store does not
// hold — never stored, evicted, or outside the retained window.
var ErrNotFound = errors.New("store: not found")

// Meta is the immutable identity of a stored graph: its content
// address, display name, and base (version 0) shape.
type Meta struct {
	// ID is "g-" plus a digest prefix, derived from Digest by the
	// service layer; the store treats it as an opaque key.
	ID string `json:"id"`
	// Name is the caller-supplied display name (may be empty).
	Name string `json:"name"`
	// Digest is the full SHA-256 of the canonical base edge list.
	Digest string `json:"digest"`
	// N and M are the base vertex and edge counts (version 0).
	N int `json:"n"`
	M int `json:"m"`
}

// Version describes one version of a stored graph's lineage. Version 0
// is the base snapshot; every appended batch bumps the number and
// chains a fresh digest (see ChainDigest).
type Version struct {
	Version    int    `json:"version"`
	Digest     string `json:"digest"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Appended   int    `json:"appended"`
	Merges     int    `json:"merges"`
	Components int    `json:"components"`
}

// Config sizes a store.
type Config struct {
	// MaxGraphs bounds the number of stored graphs; past it the least
	// recently used graph (by Get/Append access) is evicted. Zero or
	// negative means unbounded.
	MaxGraphs int
	// RetainVersions is the length of the retained version window per
	// graph (the service passes MaxVersionGap+1). Versions that fall
	// out of the window can no longer be materialized or used as
	// fast-forward anchors. It also sets the disk backend's compaction
	// cadence: once a graph's WAL holds a full extra window of retired
	// batches (more than 2×RetainVersions versions in all), they are
	// folded into the snapshot — one snapshot rewrite per
	// RetainVersions appends, and at most 2×RetainVersions batches held
	// per graph. Zero or negative selects 65 (gap 64).
	RetainVersions int
	// SyncCompaction makes the disk backend run a due compaction inline
	// during Append (and Open) instead of on the background goroutine —
	// deterministic for tests; ignored by the memory backend.
	SyncCompaction bool
	// FS is the filesystem seam the disk backend performs every
	// operation through. Nil selects the real filesystem (fault.OS);
	// chaos tests and wccserve -fault-spec pass a fault.Inject-wrapped
	// one to exercise failure paths deterministically. Ignored by the
	// memory backend.
	FS fault.FS
}

func (c Config) withDefaults() Config {
	if c.RetainVersions <= 0 {
		c.RetainVersions = 65
	}
	if c.FS == nil {
		c.FS = fault.OS{}
	}
	return c
}

// Store is the storage engine interface. Implementations are safe for
// concurrent use. The caller (internal/service) serializes appends per
// graph and owns digest computation; the store owns retention, LRU
// eviction, durability, and materialization.
type Store interface {
	// Put stores a new graph record: identity, base snapshot, and the
	// version-0 lineage entry. The disk backend streams the base into a
	// WCCM1 snapshot and keeps no reference to it; the memory backend
	// materializes it, keeping an in-RAM *graph.Graph itself. Neither
	// modifies it. Storing an existing ID is an error (the caller
	// dedupes via Get first). It returns the IDs evicted to make room,
	// so the caller can drop any runtime state keyed on them.
	Put(meta Meta, base graph.View, v0 Version) (evicted []string, err error)
	// Get returns a graph's identity and marks it most recently used.
	Get(id string) (Meta, bool)
	// List returns every stored graph's identity in first-stored order.
	List() []Meta
	// Len returns the number of stored graphs.
	Len() int
	// Append records one edge batch and its version metadata at the
	// tail of the graph's lineage. The durable backend fsyncs before
	// returning: an Append that returned nil survives a crash.
	Append(id string, batch []graph.Edge, v Version) error
	// Versions returns the retained version window, oldest first.
	Versions(id string) ([]Version, error)
	// Delta returns the edges appended between two retained versions
	// from < to, in append order.
	Delta(id string, from, to int) ([]graph.Edge, error)
	// Tail returns the retained batch records newer than version from,
	// oldest first — each appended batch with its full lineage metadata,
	// the unit the replication feed ships. A from outside the retained
	// window (older than it, or beyond the latest version) is
	// ErrNotFound: the batches needed to catch up from there are gone
	// (compacted) or do not exist yet, and a replica must re-bootstrap
	// from a snapshot instead.
	Tail(id string, from int) ([]BatchRecord, error)
	// Materialize builds (or returns the cached) immutable CSR graph of
	// a retained version. The latest version's materialization is
	// cached and pointer-stable until the next append.
	Materialize(id string, version int) (*graph.Graph, error)
	// View returns a read view of a retained version. The disk backend
	// never materializes it: the view serves straight off the
	// snapshot's mapped pages, with appended batches layered as an
	// in-memory overlay. The memory backend's graphs are resident
	// anyway, so its view is the CSR Materialize returns, which keeps
	// the solvers' CSR fast path. The release func pins the underlying
	// mapping for the view's lifetime — eviction and compaction unmap
	// only after the last release — and must be called exactly once
	// when the caller is done scanning.
	View(id string, version int) (graph.View, func(), error)
	// Evict removes one graph (and, for the durable backend, its
	// files), reporting whether it was present.
	Evict(id string) bool
	// Probe reports whether the backend can currently complete a
	// durable write (create + write + fsync of a scratch file for the
	// disk backend; trivially nil for the memory one). The service's
	// degraded read-only mode polls it to decide when mutations are
	// safe to accept again.
	Probe() error
	// Close releases resources; the durable backend stops its
	// compaction worker and closes its WAL handles.
	Close() error
}

// ChainDigest derives the digest of a new version from its predecessor,
// the (possibly grown) vertex count, and the appended batch, in batch
// order. Chaining keeps appends O(batch) instead of re-hashing the
// whole edge multiset, while still guaranteeing distinct digests along
// a lineage — the property the service's labeling-cache keys rely on,
// and what the disk backend re-verifies record by record on open.
func ChainDigest(prev string, n int, batch []graph.Edge) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", prev, n)
	var buf [24]byte
	for _, e := range batch {
		b := strconv.AppendInt(buf[:0], int64(e.U), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, '\n')
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
