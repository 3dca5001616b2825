package service

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
)

// Labeling is one cached solve: a (algo, seed, λ, memory) configuration
// header for one stored graph version, pointing at that version's
// partition into connected components. Every exact algorithm yields the
// same partition, so configurations cached at one version share one
// partition value (see partition) — the header is all that is
// per-configuration. Labelings are immutable once cached; an edge
// append produces a NEW labeling for the new version rather than
// mutating this one, so concurrent queries never observe a half-merged
// state.
type Labeling struct {
	// GraphID identifies the stored graph that was solved.
	GraphID string
	// Version is the graph version this labeling describes.
	Version int
	// Algo, Seed, Lambda, Memory echo the solve configuration.
	Algo   string
	Seed   uint64
	Lambda float64
	Memory int
	// Rounds is the MPC rounds the solve charged.
	Rounds int
	// PeakEdges is the solve's peak materialized edge set.
	PeakEdges int
	// Forwarded reports that this labeling was derived by incrementally
	// merging appended batches into an earlier solve's labeling instead
	// of running an algorithm.
	Forwarded bool

	// key is the cache key the labeling is stored under — a fixed-size
	// comparable struct, so neither building it nor looking it up
	// allocates (the old fmt.Sprintf string key cost two allocations per
	// query).
	key labelingKey
	// The version's shared partition; its Components field is promoted
	// as the labeling's component count.
	*partition
}

// partition is one graph version's partition into connected components:
// the dense vertex labels with component sizes and the size histogram
// precomputed, so every query answers in O(1). It is immutable and
// shared by pointer between every cached configuration of the version,
// and — when an appended batch merged no two components and added no
// vertex — between the version and its parent. The label values
// themselves are an implementation detail: two partitions are equal when
// they group the vertices the same way (samePartition), whatever labels
// they use.
type partition struct {
	// Components is the number of connected components.
	Components int
	labels     []graph.Vertex
	sizes      []int    // sizes[c] = vertices labeled c
	hist       [][2]int // (size, count) pairs ascending
}

func newPartition(labels []graph.Vertex, sizes []int) *partition {
	return &partition{Components: len(sizes), labels: labels, sizes: sizes, hist: graph.SizeHistogramOf(sizes)}
}

// bytes is the memory the partition's per-vertex and per-component
// tables hold (labels plus sizes) — what /v1/stats reports.
func (p *partition) bytes() int64 {
	return int64(len(p.labels))*int64(unsafe.Sizeof(graph.Vertex(0))) + int64(len(p.sizes))*int64(unsafe.Sizeof(0))
}

// samePartition reports whether labels (a dense labeling with count
// components) groups the vertices exactly as p does. It builds the label
// bijection in both directions over slices indexed by label: O(n +
// components), no map.
func (p *partition) samePartition(labels []graph.Vertex, count int) bool {
	if len(labels) != len(p.labels) || count != p.Components {
		return false
	}
	fwd := make([]graph.Vertex, 2*count)
	for i := range fwd {
		fwd[i] = -1
	}
	fwd, bwd := fwd[:count], fwd[count:]
	for v, a := range p.labels {
		b := labels[v]
		if b < 0 || int(b) >= count {
			return false
		}
		switch {
		case fwd[a] < 0 && bwd[b] < 0:
			fwd[a], bwd[b] = b, a
		case fwd[a] != b || bwd[b] != a:
			return false
		}
	}
	return true
}

// SameComponent reports whether u and v share a component.
func (l *Labeling) SameComponent(u, v graph.Vertex) (bool, error) {
	if err := l.checkVertex(u); err != nil {
		return false, err
	}
	if err := l.checkVertex(v); err != nil {
		return false, err
	}
	return l.labels[u] == l.labels[v], nil
}

// ComponentSize returns the size of u's component.
func (l *Labeling) ComponentSize(u graph.Vertex) (int, error) {
	if err := l.checkVertex(u); err != nil {
		return 0, err
	}
	return l.sizes[l.labels[u]], nil
}

func (l *Labeling) checkVertex(u graph.Vertex) error {
	if u < 0 || int(u) >= len(l.labels) {
		return fmt.Errorf("service: vertex %d out of range [0,%d)", u, len(l.labels))
	}
	return nil
}

// labelingKey addresses one labeling: the decoded version digest plus the
// canonicalized solve configuration. It is a fixed-size comparable value,
// so it works directly as a map key, lives on the stack, and hashes to a
// shard without formatting anything. The algo field is the registry index
// from the service's canonicalization table, not the name, keeping the
// struct pointer-free.
type labelingKey struct {
	digest [sha256Len]byte
	algo   uint32
	memory int
	seed   uint64
	lambda float64
}

// sha256Len is the decoded length of the hex digests the store chains.
const sha256Len = 32

// decodeDigest turns a store digest (64 hex chars) into its fixed-size
// key form. Malformed or short digests (possible only for internal bugs,
// never for store-issued digests) yield a best-effort prefix — the worst
// case is a cache miss, never a wrong answer, because every lookup and
// insert decodes the same way.
func decodeDigest(digest string) (d [sha256Len]byte) {
	hex.Decode(d[:], []byte(digest)[:min(len(digest), 2*sha256Len)])
	return d
}

// cacheShard is one lock-striped segment of the labeling cache. The
// RWMutex guards only the map structure; access recency lives in each
// entry's atomic stamp, so a get takes the shared lock, never the
// exclusive one — concurrent hits on the same shard do not serialize
// behind list splicing the way the old single-mutex LRU did.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[labelingKey]*cacheEntry
	_       [32]byte // keep neighboring shards' locks off one cache line
}

// cacheEntry pairs an immutable labeling with its last-access stamp.
// put replaces the whole entry rather than mutating l, so a get that has
// already released the shard lock still returns a coherent labeling.
type cacheEntry struct {
	l     *Labeling
	stamp atomic.Int64
}

// cache is the sharded labeling cache: a fixed number of power-of-two
// lock-striped shards with one global capacity and one global logical
// clock. Hits are wait-free apart from a shared RLock on the key's shard
// and two atomic stores (stamp + clock), and they allocate nothing.
// Eviction is exact least-recently-stamped across the whole cache,
// preserving the old LRU's observable behavior; it runs only on insert
// overflow, i.e. on the solve path, where a full shard scan is noise
// next to an algorithm execution.
type cache struct {
	cap    int
	mask   uint64
	clock  atomic.Int64
	count  atomic.Int64
	shards []cacheShard
}

// newCache sizes the shard array: shards is rounded up to a power of
// two and clamped to [1,64] — enough stripes that 8 cores rarely
// collide, few enough that the full-sweep paths (withDigestPrefix under
// the append lock, evict scans, /v1/stats occupancy) stay cheap however
// the flag is set. 0 picks 4×GOMAXPROCS.
func newCache(capacity, shards int) *cache {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0) * 4
	}
	if shards > 64 {
		shards = 64
	}
	shards = 1 << bitsFor(shards)
	c := &cache{cap: capacity, mask: uint64(shards - 1), shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].entries = make(map[labelingKey]*cacheEntry)
	}
	return c
}

// bitsFor returns ceil(log2(n)) for n ≥ 1.
func bitsFor(n int) (b uint) {
	for 1<<b < n {
		b++
	}
	return b
}

// shardOf hashes a key to its shard. The digest is SHA-256 output —
// already uniform — so the hash only needs to fold in the configuration
// fields and mix once (splitmix64 finalizer) so near-identical specs
// (seed k vs k+1) still spread.
func (c *cache) shardOf(k *labelingKey) *cacheShard {
	h := binary.LittleEndian.Uint64(k.digest[:8])
	h ^= k.seed*0x9e3779b97f4a7c15 + uint64(k.algo)
	h ^= math.Float64bits(k.lambda) + uint64(k.memory)<<17
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return &c.shards[h&c.mask]
}

// get returns the labeling under k, stamping it most recently used. The
// hot path of every query: one shared shard lock, one map probe, two
// atomic writes, zero allocations.
//
//wcc:hotpath
func (c *cache) get(k labelingKey) (*Labeling, bool) {
	sh := c.shardOf(&k)
	sh.mu.RLock()
	e := sh.entries[k]
	sh.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	e.stamp.Store(c.clock.Add(1))
	return e.l, true
}

// put inserts (or replaces) a labeling under its key and evicts down to
// capacity. Replacement installs a fresh entry instead of mutating the
// old one, so concurrent gets holding the old pointer stay coherent.
func (c *cache) put(l *Labeling) {
	e := &cacheEntry{l: l}
	e.stamp.Store(c.clock.Add(1))
	sh := c.shardOf(&l.key)
	sh.mu.Lock()
	_, existed := sh.entries[l.key]
	sh.entries[l.key] = e
	sh.mu.Unlock()
	if !existed {
		if c.count.Add(1) > int64(c.cap) {
			c.evict()
		}
	}
}

// evict removes globally least-recently-stamped entries until the cache
// is back under capacity. The scan visits every shard under its shared
// lock; the delete revalidates under the exclusive lock, so two racing
// evictions cannot double-count one removal.
func (c *cache) evict() {
	for c.count.Load() > int64(c.cap) {
		var (
			victim      *cacheEntry
			victimKey   labelingKey
			victimShard *cacheShard
			oldest      = int64(math.MaxInt64)
		)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.RLock()
			for k, e := range sh.entries {
				if s := e.stamp.Load(); s < oldest {
					oldest, victim, victimKey, victimShard = s, e, k, sh
				}
			}
			sh.mu.RUnlock()
		}
		if victim == nil {
			return // emptied by a concurrent eviction
		}
		victimShard.mu.Lock()
		if cur := victimShard.entries[victimKey]; cur == victim {
			delete(victimShard.entries, victimKey)
			victimShard.mu.Unlock()
			c.count.Add(-1)
			continue
		}
		victimShard.mu.Unlock()
		// The victim was replaced or already evicted; rescan.
	}
}

// len returns the number of cached labelings.
func (c *cache) len() int {
	n := c.count.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// capacity returns the configured entry bound — reported next to the
// occupancy by /v1/stats so operators can see headroom, not just usage.
func (c *cache) capacity() int { return c.cap }

// occupancy returns the per-shard entry counts, in shard order — the
// /v1/stats signal for sizing -cache-entries and -cache-shards (a single
// hot shard means the key mix defeats the hash; uniformly full shards
// mean the capacity is the bottleneck).
func (c *cache) occupancy() []int {
	out := make([]int, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		out[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return out
}

// withDigestPrefix returns the cached labelings stored under one version
// digest — every configuration solved for that specific graph version.
// The append path uses it to fast-forward all of a version's labelings
// when a batch lands. O(entries) scan, but the cache is small by design
// (default 64) and appends are rare relative to queries; recency stamps
// are deliberately not touched.
func (c *cache) withDigestPrefix(digest string) []*Labeling {
	d := decodeDigest(digest)
	var out []*Labeling
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if k.digest == d {
				out = append(out, e.l)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// partitionAt returns the partition a cached configuration holds at the
// version whose decoded digest is d, or nil when none does. The solve
// and lazy fast-forward paths probe it before caching a new labeling;
// like withDigestPrefix it is an O(entries) sweep off the query path.
func (c *cache) partitionAt(d [sha256Len]byte) *partition {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if k.digest == d {
				sh.mu.RUnlock()
				return e.l.partition
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// partitions returns the number of distinct partitions the cached
// labelings point at and the bytes those partitions hold — the
// /v1/stats view of how much sharing saves.
func (c *cache) partitions() (count int, bytes int64) {
	seen := make(map[*partition]struct{})
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			if _, ok := seen[e.l.partition]; !ok {
				seen[e.l.partition] = struct{}{}
				bytes += e.l.partition.bytes()
			}
		}
		sh.mu.RUnlock()
	}
	return len(seen), bytes
}
