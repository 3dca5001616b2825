package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Input sizes. They are fixed so that every seed yields graphs of the same
// shape; only the random choices inside a family depend on the seed.
const (
	gndN, gndD         = 500_000, 8 // ~2M edges, one giant component
	fragCount, fragSz  = 4000, 64   // 4000 expanders of 64 vertices, D=8: ~1M edges
	gridRows, gridCols = 700, 700   // ~1M edges, diameter ~1400
	expD               = 8

	appendCount, appendSz = 1000, 64 // append-replicate base: ~256k edges
	appendBatch           = 256      // edges per appended batch
	mpcCount, mpcSz       = 2, 512   // mpc-reference input
	mpcLambda             = 0.3
	// mpcSeed fixes the mpc-reference problem: its input and the
	// pipeline's seed are the same in every run, whatever --seed, so that
	// its time and rounds compare across runs. The pipeline's work depends
	// on both (about ±8% between seeds at this size), which would widen
	// the spread of mpc_solve_s across seeds by as much.
	mpcSeed = 1

	genAttempts = 8 // seeds tried per input, see seeded
)

// family is one generated input graph with its ground-truth labeling.
type family struct {
	name   string
	g      *graph.Graph
	labels []graph.Vertex // dense component label per vertex
	text   []byte         // the upload body: the graph as a text edge list
}

// subSeed derives an independent seed for one input from the workload seed,
// so that adding an input never shifts the randomness of another.
func subSeed(seed uint64, name string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// seeded calls build with subSeed(seed, name) and, while that fails, with
// further seeds derived from the same pair, genAttempts in all. gen rejects
// a union in which one sampled expander came out disconnected, which at
// these sizes happens for about one workload seed in a hundred; a run must
// not fail on its seed, and the same seed must still give the same input.
func seeded[T any](seed uint64, name string, build func(uint64) (T, error)) (T, error) {
	var (
		v   T
		err error
	)
	for attempt := 0; attempt < genAttempts; attempt++ {
		key := name
		if attempt > 0 {
			key += "#" + strconv.Itoa(attempt)
		}
		if v, err = build(subSeed(seed, key)); err == nil {
			return v, nil
		}
	}
	return v, fmt.Errorf("%s: none of %d seeds generated: %w", name, genAttempts, err)
}

// unionSpec is the gen.Spec of a union of equal expanders.
func unionSpec(count, size int, seed uint64) gen.Spec {
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = size
	}
	return gen.Spec{Family: "union", Sizes: sizes, D: expD, Seed: seed}
}

// buildUnion builds exactly the graph gen.Spec{Family: "union"}.Build
// returns (same RNG derivation), keeping the gen.Labeled ground truth that
// Spec.Build discards.
func buildUnion(spec gen.Spec) (*gen.Labeled, error) {
	rng := rand.New(rand.NewPCG(spec.Seed, 0xfeed))
	l, err := gen.ExpanderUnion(spec.Sizes, spec.D, rng)
	if err != nil {
		return nil, err
	}
	return gen.Shuffled(l, rng), nil
}

// newFamily builds one named input. Union inputs carry their generator
// labels; the others are labeled by graph.Components.
func newFamily(name string, seed uint64, withText bool) (*family, error) {
	f := &family{name: name}
	switch name {
	case "gnd":
		g, err := gen.Spec{Family: "gnd", N: gndN, D: gndD, Seed: subSeed(seed, name)}.Build()
		if err != nil {
			return nil, err
		}
		f.g = g
		f.labels, _ = graph.Components(g)
	case "grid":
		f.g = gen.Grid(gridRows, gridCols)
		f.labels, _ = graph.Components(f.g)
	case "union":
		l, err := seeded(seed, name, func(s uint64) (*gen.Labeled, error) {
			return buildUnion(unionSpec(fragCount, fragSz, s))
		})
		if err != nil {
			return nil, err
		}
		f.g, f.labels = l.G, l.Labels
	case "mpc":
		l, err := seeded(seed, name, func(s uint64) (*gen.Labeled, error) {
			return buildUnion(unionSpec(mpcCount, mpcSz, s))
		})
		if err != nil {
			return nil, err
		}
		f.g, f.labels = l.G, l.Labels
	default:
		return nil, fmt.Errorf("unknown input family %q", name)
	}
	if withText {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, f.g); err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		f.text = buf.Bytes()
	}
	return f, nil
}

// coldFamilies are the cold-solve inputs, chosen so the parallel solver
// behaves differently on each: a dominant component to skip (gnd), none
// (union), and a high diameter (grid).
var coldFamilies = []string{"gnd", "union", "grid"}

// appendTrace returns the append-replicate batches: gen.TraceSpec over the
// append base, intraFrac of each batch duplicating known edges.
func appendTrace(seed uint64, batches int, intraFrac float64) (*graph.Graph, [][]graph.Edge, error) {
	var out [][]graph.Edge
	base, err := seeded(seed, "append-base", func(s uint64) (*graph.Graph, error) {
		base, bs, err := gen.TraceSpec{
			Base:      unionSpec(appendCount, appendSz, s),
			Batches:   batches,
			BatchSize: appendBatch,
			IntraFrac: intraFrac,
			Seed:      subSeed(seed, "trace"),
		}.Build()
		out = bs
		return base, err
	})
	return base, out, err
}

// pairs returns k uniform random vertex pairs over [0, n).
func pairs(n, k int, seed uint64) [][2]graph.Vertex {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([][2]graph.Vertex, k)
	for i := range out {
		out[i] = [2]graph.Vertex{graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))}
	}
	return out
}
