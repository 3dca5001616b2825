// Package randomize implements Step 2 of the pipeline (Section 5, Lemma
// 5.1): given a Δ-regular graph whose components have mixing time at most
// T, replace every connected component by (a close approximation of) a
// sample from the random-graph distribution G(n_i, 2k) on the same vertex
// set — without ever knowing the components.
//
// Mechanism: add Δ self-loops to every vertex, so that length-T plain
// walks of the new graph are length-T *lazy* walks of the original
// (Section 5.2). graph.AddSelfLoops lists each loop twice in the
// adjacency, so the walked graph is 3Δ-regular and a step stays put with
// probability 2/3, not the lazy walk's 1/2: a lazier walk, which mixes
// more slowly than the lemma assumes. Then use the Theorem 3 data
// structure to give
// every vertex k independent walk targets, each within total variation
// n^{-Θ(1)} of a uniform vertex of its own component; connect each vertex
// to its k targets.
package randomize

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/randwalk"
)

// Engine selects the walk implementation.
type Engine int

const (
	// EngineAuto picks Layered when the layered graph fits a host memory
	// budget and Direct otherwise.
	EngineAuto Engine = iota
	// EngineLayered is the faithful Theorem 3 data structure (Section
	// 5.1): Θ(n·t²) space, walks certified independent.
	EngineLayered
	// EngineDirect samples walks directly: exactly independent targets,
	// O(n·k·t) time, Theorem 3 round accounting — a substitution for the
	// layered graph that ablation A3 (A3WalkEngines in internal/bench)
	// measures.
	EngineDirect
)

// Params tunes the randomization step.
type Params struct {
	// WalksPerVertex is k: each vertex gains k out-edges, so components
	// become (close to) G(n_i, 2k) samples. The paper uses k = 50·log n;
	// connectivity of G(n_i, d) needs d ≥ c·log n with c moderately large
	// (Proposition 2.4).
	WalksPerVertex int
	// Walk configures the Theorem 3 data structure (Layered engine).
	Walk randwalk.Params
	// Engine selects the walk implementation.
	Engine Engine
}

// layeredBudget is the Auto-engine threshold on layered-graph entries
// (n·width·(t+1)); above it the Direct engine is used.
const layeredBudget = 8 << 20

// PaperParams returns k = 50·log₂ n and the paper's layered-graph width.
func PaperParams(n int) Params {
	return Params{WalksPerVertex: 50 * ceilLog2(n), Walk: randwalk.PaperParams()}
}

// PracticalParams returns k = max(8, 4·log₂ n) with the scaled walk width —
// still comfortably above the G(n, c·log n) connectivity threshold, at a
// fraction of the paper's constant.
func PracticalParams(n int) Params {
	k := 4 * ceilLog2(n)
	if k < 8 {
		k = 8
	}
	return Params{WalksPerVertex: k, Walk: randwalk.PracticalParams()}
}

// Stats reports the quality of the randomization.
type Stats struct {
	// WalkLength is the lazy-walk length T used.
	WalkLength int
	// WalksPerVertex is k.
	WalksPerVertex int
	// CertifiedFraction is the mean fraction of walks certified
	// independent by the Theorem 3 structure.
	CertifiedFraction float64
}

// Randomize runs Lemma 5.1 on a Δ-regular graph g with component mixing
// times at most walkLength. The output graph H has V(H) = V(G), n·k edges,
// and with high probability each component of H equals the corresponding
// component of G and is distributed close to G(n_i, 2k).
func Randomize(sim *mpc.Sim, g *graph.Graph, walkLength int, params Params, rng *rand.Rand) (*graph.Graph, Stats, error) {
	n := g.N()
	stats := Stats{WalkLength: walkLength, WalksPerVertex: params.WalksPerVertex}
	if n == 0 {
		return graph.NewBuilder(0).Build(), stats, nil
	}
	delta := g.Degree(0)
	if !g.IsRegular(delta) || delta == 0 {
		return nil, stats, fmt.Errorf("randomize: input must be regular with positive degree (Lemma 5.1 precondition)")
	}
	if params.WalksPerVertex < 1 {
		return nil, stats, fmt.Errorf("randomize: need at least one walk per vertex")
	}
	if walkLength < 1 {
		return nil, stats, fmt.Errorf("randomize: walk length %d < 1", walkLength)
	}
	// Δ self-loops, each listed twice in the adjacency, make the graph
	// 3Δ-regular: its plain walk stays put with probability 2/3, a lazier
	// walk of g than the 1/2 of Section 5.2.
	lazy := graph.AddSelfLoops(g, delta)
	sim.Charge(1, "randomize:selfloops")
	engine := params.Engine
	if engine == EngineAuto {
		width := 2 * walkLength // both presets use the paper's width
		if n*width*(walkLength+1) > layeredBudget {
			engine = EngineDirect
		} else {
			engine = EngineLayered
		}
	}
	var (
		targets [][]graph.Vertex
		err     error
	)
	switch engine {
	case EngineLayered:
		var frac float64
		targets, frac, err = randwalk.CollectTargets(sim, lazy, walkLength, params.WalksPerVertex, params.Walk, rng)
		stats.CertifiedFraction = frac
	case EngineDirect:
		targets, err = randwalk.DirectWalks(sim, lazy, walkLength, params.WalksPerVertex, rng)
		stats.CertifiedFraction = 1 // exact product distribution
	default:
		return nil, stats, fmt.Errorf("randomize: unknown engine %d", engine)
	}
	if err != nil {
		return nil, stats, fmt.Errorf("randomize: walks: %w", err)
	}
	b := graph.NewBuilderHint(n, n*params.WalksPerVertex)
	for v := 0; v < n; v++ {
		for _, u := range targets[v] {
			b.AddEdge(graph.Vertex(v), u)
		}
	}
	sim.Charge(1, "randomize:connect")
	return b.Build(), stats, nil
}

// Batches runs Randomize count times with fresh randomness, producing the
// F independent "fresh seed" graphs G̃_1..G̃_F that GrowComponents consumes
// one per phase (Section 6, preprocessing step). The batches run in
// parallel machine groups, so rounds advance by the slowest batch only —
// and on the host they fan out across the simulator's executor, each batch
// on its own Sim fork with its own StreamRNG substream keyed by batch
// index, merged in batch order so the output is schedule-independent.
func Batches(sim *mpc.Sim, g *graph.Graph, walkLength, count int, params Params, rng *rand.Rand) ([]*graph.Graph, Stats, error) {
	out := make([]*graph.Graph, count)
	agg := Stats{WalkLength: walkLength, WalksPerVertex: params.WalksPerVertex}
	if count == 0 {
		return out, agg, nil
	}
	s1, s2 := rng.Uint64(), rng.Uint64()
	children := make([]*mpc.Sim, count)
	sts := make([]Stats, count)
	errs := make([]error, count)
	sim.Executor().Run(count, func(i int) {
		children[i] = sim.Fork()
		out[i], sts[i], errs[i] = Randomize(children[i], g, walkLength, params, mpc.StreamRNG(s1, s2, uint64(i)))
	})
	sim.MergeParallel(children...)
	fracSum := 0.0
	for i := 0; i < count; i++ {
		if errs[i] != nil {
			return nil, agg, fmt.Errorf("randomize: batch %d: %w", i, errs[i])
		}
		fracSum += sts[i].CertifiedFraction
	}
	agg.CertifiedFraction = fracSum / float64(count)
	return out, agg, nil
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
