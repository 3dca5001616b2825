// Package core assembles the paper's full algorithm (Theorem 4 = Theorem 1
// of the introduction): identify all connected components of a sparse
// graph whose components have spectral gap at least λ, in
// O(log log n + log(1/λ)) MPC rounds with n^Ω(1) memory per machine.
//
// Pipeline (Section 7):
//
//	Step 1  Regularize (Lemma 4.1): G → Δ-regular G₂ via the replacement
//	        product; components correspond one-to-one and the mixing time
//	        of each component stays O(log(n/γ)/λ).
//	Step 2  Randomize (Lemma 5.1): every component of G₂ becomes (close
//	        to) a random graph from G(n_i, Δ·s) — F independent batches.
//	Step 3  GrowComponents + BFS finish (Lemma 6.1): leader election with
//	        quadratic growth finds the components of the batches in
//	        O(log log n) rounds.
//
// Corollary 7.1 (unknown λ) is implemented by Oblivious: run the pipeline
// with a geometric schedule λ'_1 = 1/2, λ'_{j+1} = (λ'_j)^{1.1}, retaining
// components that stopped growing (a component is provably complete when
// no input edge leaves it).
//
// The library guarantee is stronger than the paper's promise-style
// statement: FindComponents always returns the exact components. When the
// λ lower bound is valid the round count matches the theorem; when it is
// not (or the budgeted walk length is reached), a contraction + BFS finish
// completes correctness at an honestly-charged extra round cost reported
// in Stats.
package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/leader"
	"repro/internal/mpc"
	"repro/internal/randomize"
	"repro/internal/randwalk"
	"repro/internal/regularize"
	"repro/internal/spectral"
)

// Options configures FindComponents. The zero value selects practical
// defaults with an unknown spectral gap (the oblivious algorithm).
type Options struct {
	// Lambda is a lower bound on the spectral gap of every connected
	// component (Theorem 1's λ). Zero means unknown: Corollary 7.1's
	// geometric schedule is used.
	Lambda float64
	// Gamma is the walk accuracy γ (Lemma 5.1 uses n^{-10}; the practical
	// default is 1e-2, which already puts walk targets within 1% of
	// uniform in TV distance — ample for the G(n, Θ(log n)) connectivity
	// threshold downstream).
	Gamma float64
	// Regularize selects Step 1 constants; zero value = practical preset.
	Regularize regularize.Params
	// Walk selects the Theorem 3 parameters for the layered engine.
	Walk randwalk.Params
	// Engine selects the walk implementation (default Direct).
	Engine randomize.Engine
	// GrowDelta and GrowS are Step 3's Δ and s; zero derives
	// Δ = 8, s = max(8, 2·⌈log₂ n⌉).
	GrowDelta, GrowS int
	// PhaseExponent is the n^x target at which quadratic growth hands off
	// to the BFS finish (paper: 1/100 with its constants; practical
	// default 1/2).
	PhaseExponent float64
	// MaxWalkLength caps the lazy-walk length T (layered memory and
	// simulation time guard). If the Proposition 2.2 bound for Lambda
	// exceeds the cap, walks run at the cap and the correctness finish
	// covers the slack. Default 4096.
	MaxWalkLength int
	// Cluster configures the simulated MPC cluster; zero value derives
	// mpc.AutoConfig(2m, 0.5, 2).
	Cluster mpc.Config
	// Workers selects the simulator's execution engine when
	// Cluster.Workers is unset: 1 (default) is sequential, k > 1 a bounded
	// pool, negative a GOMAXPROCS-wide pool. Results are bit-identical for
	// a fixed Seed regardless of the setting.
	Workers int
	// Seed drives all randomness; the default 0 is a valid fixed seed.
	Seed uint64
}

func (o Options) withDefaults(m int) Options {
	if o.Gamma <= 0 {
		o.Gamma = 1e-2
	}
	if o.Regularize.CloudDegree == 0 {
		o.Regularize = regularize.PracticalParams()
	}
	if o.Walk.Width == 0 && !o.Walk.PaperWidth {
		o.Walk = randwalk.PracticalParams()
	}
	if o.GrowDelta == 0 {
		o.GrowDelta = 8
	}
	if o.PhaseExponent <= 0 {
		o.PhaseExponent = 0.5
	}
	if o.MaxWalkLength <= 0 {
		o.MaxWalkLength = 4096
	}
	if o.Cluster.MachineMemory == 0 {
		records := 2 * m
		if records < 16 {
			records = 16
		}
		// Preserve the execution-engine fields across the size derivation.
		workers, executor := o.Cluster.Workers, o.Cluster.Executor
		o.Cluster = mpc.AutoConfig(records, 0.5, 2)
		o.Cluster.Workers, o.Cluster.Executor = workers, executor
	}
	if o.Cluster.Workers == 0 {
		o.Cluster.Workers = o.Workers
	}
	return o
}

func (o Options) growS(n int) int {
	if o.GrowS > 0 {
		return o.GrowS
	}
	// s = Θ(log n): expected leader-neighbours per vertex. With s = ln n
	// the orphan probability per vertex is e^{-s} = 1/n; orphans become
	// singleton parts that later phases (or the finish) absorb.
	s := int(math.Ceil(math.Log(float64(n) + 1)))
	if s < 6 {
		s = 6
	}
	return s
}

// StepRounds itemizes the round cost per pipeline step.
type StepRounds struct {
	Regularize int
	Randomize  int
	Grow       int
	Finish     int
}

// Stats reports what one pipeline execution did.
type Stats struct {
	// Rounds is the total MPC rounds charged.
	Rounds int
	// Steps itemizes rounds by pipeline step.
	Steps StepRounds
	// MaxMachineLoad and TotalMessages come from the simulator.
	MaxMachineLoad int
	TotalMessages  int64
	// WalkLength is the lazy-walk length T used (post-cap).
	WalkLength int
	// WalkCapped reports whether MaxWalkLength truncated T.
	WalkCapped bool
	// Batches is F, the number of fresh random graphs.
	Batches int
	// GrowPhases holds the per-phase statistics of Step 3.
	GrowPhases []leader.PhaseStat
	// FinalDiameter is the BFS finish depth inside GrowComponents.
	FinalDiameter int
	// FinishMerges counts cross-part input edges that the correctness
	// finish had to merge (0 when the λ bound was valid).
	FinishMerges int
	// LambdaSchedule lists the λ' values tried (one entry when Lambda was
	// given; the Corollary 7.1 schedule otherwise).
	LambdaSchedule []float64
}

// Result is the output of FindComponents.
type Result struct {
	// Labels assigns every vertex a dense component label.
	Labels []graph.Vertex
	// Components is the number of connected components.
	Components int
	// Stats describes the execution.
	Stats Stats
}

// FindComponents identifies the connected components of g. See Options for
// the λ-aware versus oblivious modes. The result is always exact.
func FindComponents(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults(g.M())
	if opts.Lambda > 0 {
		return findWithLambda(g, opts)
	}
	return oblivious(g, opts)
}

// findWithLambda is the Theorem 4 pipeline for a known λ, plus the
// correctness finish.
func findWithLambda(g *graph.Graph, opts Options) (*Result, error) {
	sim := mpc.New(opts.Cluster)
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	labels, stats, err := runPipeline(sim, g, opts.Lambda, opts, rng)
	if err != nil {
		return nil, err
	}
	stats.LambdaSchedule = []float64{opts.Lambda}
	merges, finishRounds := correctnessFinish(sim, g, labels)
	stats.FinishMerges = merges
	stats.Steps.Finish += finishRounds
	fillSimStats(&stats, sim)
	labels, count := graph.Densify(labels)
	return &Result{Labels: labels, Components: count, Stats: stats}, nil
}

// oblivious is Corollary 7.1: geometric λ' schedule, keeping components
// that stop growing. Vertices of already-complete components are excluded
// from later iterations.
func oblivious(g *graph.Graph, opts Options) (*Result, error) {
	sim := mpc.New(opts.Cluster)
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	n := g.N()
	final := make([]graph.Vertex, n)
	for v := range final {
		final[v] = graph.Vertex(v)
	}
	remaining := make([]graph.Vertex, n)
	for v := range remaining {
		remaining[v] = graph.Vertex(v)
	}
	var stats Stats
	lambda := 0.5
	// Floor: beyond λ' < 1/n² every graph's component gap qualifies, so
	// the pipeline pass is definitive; the correctness finish then mops up
	// anything the walk-length cap left unfinished.
	floor := 1 / float64(n*n+4)
	noProgress := 0
	for len(remaining) > 0 {
		stats.LambdaSchedule = append(stats.LambdaSchedule, lambda)
		sub, orig := graph.InducedSubgraph(g, remaining)
		subLabels, passStats, err := runPipeline(sim, sub, lambda, opts, rng)
		if err != nil {
			return nil, err
		}
		accumulate(&stats, passStats)
		// A part is complete iff no edge of sub crosses out of it.
		growable := growableParts(sub, subLabels)
		sim.Charge(1, "oblivious:growable-check")
		var next []graph.Vertex
		for i := range subLabels {
			// subLabels values are sub-vertex member representatives;
			// translate to g's numbering. Representatives are members, so
			// labels of disjoint passes cannot collide.
			final[orig[i]] = orig[subLabels[i]]
			if growable[subLabels[i]] {
				next = append(next, orig[i])
			}
		}
		if lambda <= floor {
			break
		}
		// Once the walk cap binds, shrinking λ' further cannot lengthen
		// the walks; two passes without progress means the schedule is
		// stuck and the correctness finish should take over.
		if len(next) == len(remaining) {
			noProgress++
			if noProgress >= 2 && stats.WalkCapped {
				remaining = next
				break
			}
		} else {
			noProgress = 0
		}
		remaining = next
		lambda = math.Pow(lambda, 1.1)
	}
	merges, finishRounds := correctnessFinish(sim, g, final)
	stats.FinishMerges = merges
	stats.Steps.Finish += finishRounds
	fillSimStats(&stats, sim)
	labels, count := graph.Densify(final)
	return &Result{Labels: labels, Components: count, Stats: stats}, nil
}

// runPipeline executes Steps 1–3 once on g with gap bound lambda and
// returns (possibly partial) component labels of g's vertices.
func runPipeline(sim *mpc.Sim, g *graph.Graph, lambda float64, opts Options, rng *rand.Rand) ([]graph.Vertex, Stats, error) {
	var stats Stats
	n := g.N()
	labels := make([]graph.Vertex, n)
	for v := range labels {
		labels[v] = graph.Vertex(v)
	}
	if n == 0 {
		return labels, stats, nil
	}

	// Isolated vertices are their own components (the paper assumes none;
	// we strip and re-insert them).
	active := make([]graph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) > 0 {
			active = append(active, graph.Vertex(v))
		}
	}
	if len(active) == 0 {
		return labels, stats, nil
	}
	sub, orig := graph.InducedSubgraph(g, active)

	// Step 1: regularization.
	before := sim.Rounds()
	reg, err := regularize.Regularize(sim, sub, opts.Regularize, rng)
	if err != nil {
		return nil, stats, fmt.Errorf("core: step 1: %w", err)
	}
	stats.Steps.Regularize += sim.Rounds() - before

	// Walk length from Proposition 2.2 against the regularized graph's
	// gap: λ2(H) = Ω(λ·λ_H²/d) (Proposition 4.2). The practical constant
	// below mirrors the measured preservation of the replacement product
	// (experiment E3): λ2(H) ≈ λ/(2d).
	nH := reg.H.N()
	effGap := lambda * productGapFactor(opts.Regularize)
	walkLen := spectral.MixingTimeUpperBound(effGap, nH, opts.Gamma)
	if walkLen > opts.MaxWalkLength {
		walkLen = opts.MaxWalkLength
		stats.WalkCapped = true
	}
	stats.WalkLength = walkLen

	// Step 2: F batches of randomization.
	growS := opts.growS(nH)
	k := opts.GrowDelta * growS / 2 // batch degree Δ·s = 2k
	f := leader.NumPhases(nH, opts.GrowDelta, opts.PhaseExponent)
	stats.Batches = f
	rParams := randomize.Params{WalksPerVertex: k, Walk: opts.Walk, Engine: opts.Engine}
	before = sim.Rounds()
	batches, _, err := randomize.Batches(sim, reg.H, walkLen, f, rParams, rng)
	if err != nil {
		return nil, stats, fmt.Errorf("core: step 2: %w", err)
	}
	stats.Steps.Randomize += sim.Rounds() - before

	// Step 3: grow components and finish with BFS.
	before = sim.Rounds()
	grow, err := leader.GrowComponents(sim, batches, leader.Params{Delta: opts.GrowDelta, S: growS}, rng)
	if err != nil {
		return nil, stats, fmt.Errorf("core: step 3: %w", err)
	}
	stats.Steps.Grow += sim.Rounds() - before
	stats.GrowPhases = grow.PhaseStats
	stats.FinalDiameter = grow.FinalDiameter

	// Project labels: H components → sub components → g components. The
	// label of each component is a member vertex of it (its first member
	// in g's numbering), so labels from disjoint vertex sets can never
	// collide — the oblivious schedule relies on this.
	subLabels := reg.ProjectLabels(grow.Labels)
	rep := make(map[graph.Vertex]graph.Vertex)
	for i, l := range subLabels {
		r, ok := rep[l]
		if !ok {
			r = orig[i]
			rep[l] = r
		}
		labels[orig[i]] = r
	}
	return labels, stats, nil
}

// productGapFactor estimates how much of the base spectral gap the
// replacement product preserves: Proposition 4.2 gives Ω(λ_H²/d); the
// measured constant on permutation-expander clouds is ≈ 0.72/d across base
// sizes (experiment E3 reports the sweep), which we use to size walk
// lengths. Underestimating only lengthens walks; overestimating is covered
// by the correctness finish.
func productGapFactor(p regularize.Params) float64 {
	d := float64(p.CloudDegree)
	if d <= 0 {
		d = 8
	}
	return 0.72 / d
}

// growableParts returns, per label value, whether any edge leaves the part
// (labels are arbitrary vertex-indexed values, not necessarily dense).
func growableParts(g *graph.Graph, labels []graph.Vertex) map[graph.Vertex]bool {
	growable := make(map[graph.Vertex]bool)
	g.ForEachEdge(func(e graph.Edge) {
		if labels[e.U] != labels[e.V] {
			growable[labels[e.U]] = true
			growable[labels[e.V]] = true
		}
	})
	return growable
}

// correctnessFinish merges any parts still joined by an input edge:
// contract g by the current labels and BFS the contraction (Claim 6.14
// machinery). Returns the number of cross-part edges merged and the rounds
// charged. When the λ bound was valid this is a no-op verification pass
// costing O(1) rounds.
func correctnessFinish(sim *mpc.Sim, g *graph.Graph, labels []graph.Vertex) (merges, rounds int) {
	before := sim.Rounds()
	sim.Charge(1, "finish:verify")
	uf := graph.NewUnionFind(g.N())
	for v := 0; v < g.N(); v++ {
		uf.Union(graph.Vertex(v), labels[v])
	}
	crossing := 0
	g.ForEachEdge(func(e graph.Edge) {
		if uf.Find(e.U) != uf.Find(e.V) {
			crossing++
			uf.Union(e.U, e.V)
		}
	})
	if crossing > 0 {
		// Contract + BFS on the part graph; depth ≤ its diameter. We
		// charge the BFS depth of the merge forest, measured via the
		// contraction of g by the pre-merge labels.
		dense, parts := graph.Densify(labels)
		if c, err := graph.Contract(g, dense, parts); err == nil {
			sim.ChargeSort(g.M())
			d := 1
			if c.H.N() > 1 {
				if lb := graph.DiameterLowerBound(c.H, 0); lb > d {
					d = lb
				}
			}
			sim.Charge(d, "finish:bfs")
		}
	}
	for v := 0; v < g.N(); v++ {
		labels[v] = uf.Find(graph.Vertex(v))
	}
	return crossing, sim.Rounds() - before
}

func accumulate(dst *Stats, src Stats) {
	dst.Steps.Regularize += src.Steps.Regularize
	dst.Steps.Randomize += src.Steps.Randomize
	dst.Steps.Grow += src.Steps.Grow
	dst.Steps.Finish += src.Steps.Finish
	dst.WalkLength = src.WalkLength
	dst.WalkCapped = dst.WalkCapped || src.WalkCapped
	dst.Batches = src.Batches
	dst.GrowPhases = append(dst.GrowPhases, src.GrowPhases...)
	if src.FinalDiameter > dst.FinalDiameter {
		dst.FinalDiameter = src.FinalDiameter
	}
}

func fillSimStats(stats *Stats, sim *mpc.Sim) {
	s := sim.Stats()
	stats.Rounds = s.Rounds
	stats.MaxMachineLoad = s.MaxMachineLoad
	stats.TotalMessages = s.TotalMessages
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
