// Package parallel is the native shared-memory connectivity solver: an
// Afforest-style algorithm (Sutton, Ben-Nun, Barak, IPDPS 2018; itself a
// sampling refinement of Shiloach–Vishkin) over a lock-free concurrent
// union-find, run on the same bounded executor pool (internal/mpc) the
// simulator uses. Unlike every other algorithm in the registry it does
// not simulate an MPC cluster — it is the serving path, built to
// saturate the local cores, while the paper algorithms remain the
// research/verify path.
//
// The solve has three phases plus a canonicalization pass:
//
//  1. Neighbor sampling: every vertex links itself to its first
//     SampleRounds neighbors (CSR order), which alone connects the bulk
//     of most real graphs.
//  2. Dominant-component estimation: a seeded sample of vertices votes
//     for the most common component so far. Vertices already in it can
//     skip the expensive finish phase — on skewed graphs that is almost
//     everyone.
//  3. Finish: every vertex outside the dominant component links its
//     remaining neighbors. This is exact, not heuristic: the CSR stores
//     both half-edges of every undirected edge, so an edge with at
//     least one endpoint outside the dominant component is processed
//     from that endpoint, and an edge with both endpoints inside needs
//     no processing.
//
// Determinism is stronger than the registry contract requires: the
// union-find races freely (CAS on a shared parent array, benign-racy
// path halving), so the intermediate forest depends on scheduling — but
// the final partition is exactly the connected components no matter how
// the races resolve, and the closing canonical relabeling (labels
// renumbered by first appearance, the graph.Components convention) is a
// pure function of the partition. The output is therefore bit-identical
// across Seed, Workers, and schedule; Seed only steers which component
// phase 2 elects, i.e. performance, never results.
package parallel

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// Defaults for the zero Options values.
const (
	// DefaultSampleRounds is how many leading neighbors phase 1 links.
	// Two is the Afforest paper's sweet spot: one round leaves long
	// chains for phase 3, many rounds duplicate phase 3's work.
	DefaultSampleRounds = 2
	// DefaultSampleSize is how many vertices vote in phase 2. The vote
	// only has to find a heavily dominant component, so a fixed-size
	// sample independent of n suffices.
	DefaultSampleSize = 1024
)

// seedStream is the PCG stream ID for the phase-2 sample, keeping it
// disjoint from every simulator substream derived from the same seed.
const seedStream = 0xaff04e57

// Options configures one solve. The zero value is a sensible default.
type Options struct {
	// Seed drives the phase-2 vertex sample. It never affects the
	// returned labeling — only which component gets the skip treatment.
	Seed uint64
	// Workers sizes the executor pool: 1 runs sequentially, k > 1 a
	// bounded pool, and — unlike mpc.Config, whose 0 means sequential —
	// 0 and negative values mean a GOMAXPROCS-wide pool. A native
	// solver has no reason to idle cores by default, and Workers never
	// affects results here, so the aggressive default is safe.
	Workers int
	// SampleRounds overrides DefaultSampleRounds when positive.
	SampleRounds int
	// SampleSize overrides DefaultSampleSize when positive.
	SampleSize int
}

// Stats reports what the heuristics did; nothing here affects output.
type Stats struct {
	// Workers is the resolved pool width.
	Workers int
	// SampleRounds is the resolved phase-1 depth.
	SampleRounds int
	// SkippedVertices counts vertices the dominant-component vote
	// excused from the finish phase. High values mean the sampling
	// phases did their job.
	SkippedVertices int
}

// Result is an exact canonical labeling: labels are dense, assigned by
// first appearance (vertex 0 upward), bit-identical to what
// graph.Components returns for the same graph.
type Result struct {
	Labels     []graph.Vertex
	Components int
	Stats      Stats
}

// resolved applies the defaults to the tunables.
func (o Options) resolved() (rounds, sampleSize int) {
	rounds = o.SampleRounds
	if rounds <= 0 {
		rounds = DefaultSampleRounds
	}
	sampleSize = o.SampleSize
	if sampleSize <= 0 {
		sampleSize = DefaultSampleSize
	}
	return rounds, sampleSize
}

// Components computes the connected components of g.
func Components(g *graph.Graph, opts Options) *Result {
	n := g.N()
	ex := executorFor(opts.Workers)
	rounds, sampleSize := opts.resolved()

	offsets, adj := g.CSR()
	f := newForest(n, ex)

	// Phase 1: link the first `rounds` neighbors of every vertex. Each
	// round is a full parallel pass so early rounds' merges make later
	// rounds' unions cheap no-ops.
	for r := 0; r < rounds; r++ {
		rr := int64(r)
		mpc.RunChunks(ex, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if begin := offsets[v]; begin+rr < offsets[v+1] {
					f.union(graph.Vertex(v), adj[begin+rr])
				}
			}
		})
	}

	// Phase 2: elect the dominant component by sampling. Any outcome is
	// correct (including electing nothing); the seed steers performance
	// only.
	dominant := electDominant(f, n, opts.Seed, sampleSize)

	// Phase 3: finish every vertex outside the dominant component. The
	// skip check races with concurrent merges, but only conservatively:
	// a stale read can fail to skip (harmless extra unions), never skip
	// a vertex that is outside the component.
	var skipped atomic.Int64
	mpc.RunChunks(ex, n, func(lo, hi int) {
		localSkipped := int64(0)
		for v := lo; v < hi; v++ {
			begin, end := offsets[v], offsets[v+1]
			if end-begin <= int64(rounds) {
				continue // every neighbor already linked in phase 1
			}
			if f.find(graph.Vertex(v)) == dominant {
				localSkipped++
				continue
			}
			for i := begin + int64(rounds); i < end; i++ {
				f.union(graph.Vertex(v), adj[i])
			}
		}
		skipped.Add(localSkipped)
	})

	labels, components := canonicalize(f, n, ex)
	return &Result{
		Labels:     labels,
		Components: components,
		Stats: Stats{
			Workers:         ex.Workers(),
			SampleRounds:    rounds,
			SkippedVertices: int(skipped.Load()),
		},
	}
}

// electDominant runs phase 2: a seeded sample of vertices votes for the
// most common component so far, ties going to the smaller root so the
// map's iteration order cannot steer the election. Shared by the CSR and
// View paths so both elect the same component for the same seed.
func electDominant(f *forest, n int, seed uint64, sampleSize int) graph.Vertex {
	dominant := graph.Vertex(-1)
	if n > 0 {
		rng := mpc.StreamRNG(seed, uint64(n), seedStream)
		votes := make(map[graph.Vertex]int, 64)
		for i := 0; i < sampleSize; i++ {
			votes[f.find(graph.Vertex(rng.IntN(n)))]++
		}
		best := 0
		for root, c := range votes {
			if c > best || c == best && root < dominant {
				best, dominant = c, root
			}
		}
	}
	return dominant
}

// canonicalize flattens the forest in parallel, then renumbers roots by
// first appearance sequentially, so the output is a pure function of
// the partition (and matches graph.Components bit for bit). This pass
// is why the CSR and View paths agree byte for byte: whatever forest
// the races built, equal partitions canonicalize to equal labelings.
func canonicalize(f *forest, n int, ex mpc.Executor) ([]graph.Vertex, int) {
	labels := make([]graph.Vertex, n)
	mpc.RunChunks(ex, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = f.find(graph.Vertex(v))
		}
	})
	remap := make([]graph.Vertex, n)
	mpc.RunChunks(ex, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			remap[i] = -1
		}
	})
	next := graph.Vertex(0)
	for v := 0; v < n; v++ {
		root := labels[v]
		if remap[root] < 0 {
			remap[root] = next
			next++
		}
		labels[v] = remap[root]
	}
	return labels, int(next)
}

// executorFor maps Options.Workers to an executor: 1 sequential,
// everything else a bounded pool (mpc.NewPool clamps 0 and negatives to
// GOMAXPROCS, which is exactly the native default we want).
func executorFor(workers int) mpc.Executor {
	if workers == 1 {
		return mpc.Sequential
	}
	return mpc.NewPool(workers)
}

// forest is a lock-free union-find over an int32 parent array
// (graph.Vertex is an int32 alias, so the atomics operate on the slice
// directly). There are no ranks or sizes: union links the
// larger-indexed root under the smaller-indexed one, so the root of
// any set only ever decreases — that monotonicity is what makes the
// CAS retry loops terminate and lets find run without synchronization.
type forest struct {
	parent []graph.Vertex
}

func newForest(n int, ex mpc.Executor) *forest {
	f := &forest{parent: make([]graph.Vertex, n)}
	mpc.RunChunks(ex, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f.parent[i] = graph.Vertex(i)
		}
	})
	return f
}

// find returns the current root of x with benign-racy path halving: the
// grandparent CAS may lose to a concurrent merge, which only costs a
// retry, never correctness.
func (f *forest) find(x graph.Vertex) graph.Vertex {
	for {
		p := atomic.LoadInt32(&f.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&f.parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&f.parent[x], p, gp)
		x = gp
	}
}

// union merges the sets of u and v. The CAS only installs an edge on a
// node that is currently a root, so a root whose parent pointer is
// stale (another union won the race) just retries from the new roots.
func (f *forest) union(u, v graph.Vertex) {
	for {
		ru, rv := f.find(u), f.find(v)
		if ru == rv {
			return
		}
		if ru < rv {
			ru, rv = rv, ru
		}
		if atomic.CompareAndSwapInt32(&f.parent[ru], ru, rv) {
			return
		}
		u, v = ru, rv
	}
}
