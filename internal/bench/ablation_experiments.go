package bench

import (
	"fmt"
	"time"

	"repro/internal/expander"
	"repro/internal/graph"
	"repro/internal/leader"
	"repro/internal/mpc"
	"repro/internal/randomize"
	"repro/internal/randwalk"
	"repro/internal/rgraph"
	"repro/internal/spectral"
)

// Ablations lists the design-choice ablation experiments (the "A" rows of
// EXPERIMENTS.md): each isolates one design decision of the paper and
// shows what breaks (or doesn't) without it.
func Ablations() []Runner {
	return []Runner{
		{"A1", "fresh batches per phase vs reusing one batch", A1FreshBatches},
		{"A2", "layered-graph width vs walk independence", A2WidthIndependence},
		{"A3", "walk engines: layered (Theorem 3) vs direct simulation", A3WalkEngines},
		{"A4", "quadratic vs constant leader-election growth", A4GrowthSchedule},
	}
}

// A1FreshBatches: Section 6 partitions the random edges into F batches and
// consumes a fresh one per phase, "breaking the dependency between the
// choices made by the algorithm in previous rounds and the randomness of
// the underlying graph". The ablation reuses batch 1 in every phase; the
// contraction graphs then stop looking like fresh G(n,d) samples and the
// growth/regularity degrade.
func A1FreshBatches(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "fresh batch per phase (paper) vs one reused batch (ablation)",
		Claim:   "Section 6: fresh batches keep each phase's contraction a random graph",
		Columns: []string{"variant", "phase2 meanPart", "phase2 degSpread", "components", "bfsDepth"},
	}
	rng := rngFor(cfg, 21)
	n := 3000
	if cfg.Quick {
		n = 1500
	}
	params := leader.Params{Delta: 8, S: 20}
	f := leader.NumPhases(n, params.Delta, 0.5)
	if f < 2 {
		f = 2
	}
	fresh := make([]*graph.Graph, f)
	for i := range fresh {
		b, err := rgraph.Sample(n, params.Delta*params.S, rng)
		if err != nil {
			return nil, err
		}
		fresh[i] = b
	}
	reused := make([]*graph.Graph, f)
	for i := range reused {
		reused[i] = fresh[0]
	}
	for _, variant := range []struct {
		name    string
		batches []*graph.Graph
	}{
		{"fresh (paper)", fresh},
		{"reused (ablation)", reused},
	} {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 22, Machines: 16, Workers: cfg.Workers})
		res, err := leader.GrowComponents(sim, variant.batches, params, rng)
		if err != nil {
			return nil, err
		}
		mean, spread := "-", "-"
		if len(res.PhaseStats) >= 2 {
			st := res.PhaseStats[1]
			mean = fmt.Sprintf("%.1f", st.MeanPart)
			if st.ContractionMinDeg > 0 {
				spread = fmt.Sprintf("%.2f", float64(st.ContractionMaxDeg)/float64(st.ContractionMinDeg))
			}
		}
		t.AddRow(variant.name, mean, spread, itoa(res.Components), itoa(res.FinalDiameter))
	}
	t.Notes = append(t.Notes,
		"expected shape: the reused variant shows wider contraction-degree spread (correlated edges); correctness holds either way (the BFS finish absorbs the damage)")
	return t, nil
}

// A2WidthIndependence: Lemma 5.3 needs layered-graph width 2t for the ≥1/2
// certified-independence rate; narrower widths correlate walks. The sweep
// shows the fraction degrading as width shrinks.
func A2WidthIndependence(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "certified-independence rate vs layered-graph width",
		Claim:   "Lemma 5.3: width 2t gives ≥ 1/2 per instance; expected path hits scale like t/width",
		Columns: []string{"width", "width/t", "indepFrac", "t/width (≈E[hits])"},
	}
	rng := rngFor(cfg, 22)
	g, err := rgraph.Sample(200, 16, rng)
	if err != nil {
		return nil, err
	}
	const walkLen = 16
	for _, w := range []int{2 * walkLen, walkLen, walkLen / 2, walkLen / 4, 2} {
		frac, trials := 0.0, 8
		for i := 0; i < trials; i++ {
			sim := mpc.New(mpc.Config{MachineMemory: 1 << 22, Machines: 8, Workers: cfg.Workers})
			ws, err := randwalk.SimpleRandomWalk(sim, g, walkLen, randwalk.Params{Width: w}, rng)
			if err != nil {
				return nil, err
			}
			frac += ws.IndependentFraction()
		}
		frac /= float64(trials)
		t.AddRow(itoa(w), fmt.Sprintf("%.2f", float64(w)/walkLen),
			fmt.Sprintf("%.3f", frac), fmt.Sprintf("%.2f", float64(walkLen)/float64(w)))
	}
	t.Notes = append(t.Notes,
		"expected shape: indepFrac ≥ 0.5 at width 2t, decaying as width shrinks")
	return t, nil
}

// A3WalkEngines: the layered-graph engine (faithful Theorem 3) versus the
// direct-sampling engine that substitutes for it (randwalk.DirectWalks,
// randomize.EngineDirect): identical round accounting, different host
// cost and memory; both feed Step 2 correctly.
func A3WalkEngines(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "walk engines: layered (Theorem 3) vs direct simulation",
		Claim:   "direct sampling may replace Theorem 3's layered graph: same rounds and output quality; layered costs Θ(n·t²) memory",
		Columns: []string{"engine", "rounds", "compsOK", "hostTime"},
	}
	rng := rngFor(cfg, 23)
	// Randomize requires a regular input (Lemma 5.1's precondition).
	g, err := expander.SamplePermutationRegular(240, 16, rng)
	if err != nil {
		return nil, err
	}
	gap := spectral.Lambda2(g)
	walkLen := spectral.MixingTimeUpperBound(gap, g.N(), 1e-2)
	for _, engine := range []struct {
		name string
		e    randomize.Engine
	}{
		{"layered", randomize.EngineLayered},
		{"direct", randomize.EngineDirect},
	} {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 22, Machines: 16, Workers: cfg.Workers})
		params := randomize.PracticalParams(g.N())
		params.Engine = engine.e
		start := time.Now()
		h, _, err := randomize.Randomize(sim, g, walkLen, params, rng)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		_, hCount := graph.Components(h)
		t.AddRow(engine.name, itoa(sim.Rounds()),
			fmt.Sprintf("%v", hCount == 1), elapsed.Round(time.Millisecond).String())
	}
	t.Notes = append(t.Notes,
		"expected shape: identical rounds and component preservation; host time differs")
	return t, nil
}

// A4GrowthSchedule: the paper's point of departure from [36,37,48] — the
// quadratic growth schedule Δ_i = Δ^{2^{i-1}} versus the classic constant
// schedule (Δ_i = Δ every phase). Phases needed to reach n^{1/2}-size
// parts: O(log log n) vs O(log n / log Δ).
func A4GrowthSchedule(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "quadratic vs constant growth schedule",
		Claim:   "Section 3: squaring growth reaches size-n^Ω(1) parts in O(log log n) phases",
		Columns: []string{"schedule", "phases", "finalMeanPart", "components"},
	}
	rng := rngFor(cfg, 24)
	n := 3000
	if cfg.Quick {
		n = 1500
	}
	params := leader.Params{Delta: 8, S: 20}
	f := leader.NumPhases(n, params.Delta, 0.5)
	mkBatches := func(count int) ([]*graph.Graph, error) {
		bs := make([]*graph.Graph, count)
		for i := range bs {
			b, err := rgraph.Sample(n, params.Delta*params.S, rng)
			if err != nil {
				return nil, err
			}
			bs[i] = b
		}
		return bs, nil
	}
	// Quadratic: the real GrowComponents.
	batches, err := mkBatches(f)
	if err != nil {
		return nil, err
	}
	sim := mpc.New(mpc.Config{MachineMemory: 1 << 22, Machines: 16, Workers: cfg.Workers})
	res, err := leader.GrowComponents(sim, batches, params, rng)
	if err != nil {
		return nil, err
	}
	last := res.PhaseStats[len(res.PhaseStats)-1]
	t.AddRow("quadratic (paper)", itoa(len(res.PhaseStats)), fmt.Sprintf("%.1f", last.MeanPart), itoa(res.Components))

	// Constant: elect with fixed growth Δ each phase until parts reach √n.
	target := 1
	for target*target < n {
		target++
	}
	partOf := make([]graph.Vertex, n)
	for v := range partOf {
		partOf[v] = graph.Vertex(v)
	}
	parts := n
	phases := 0
	for parts > n/target && phases < 40 {
		b, err := rgraph.Sample(n, params.Delta*params.S, rng)
		if err != nil {
			return nil, err
		}
		c, err := graph.Contract(b, partOf, parts)
		if err != nil {
			return nil, err
		}
		el, err := leader.Elect(c.H, float64(params.Delta), rng)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			partOf[v] = el.PartOf[partOf[v]]
		}
		if el.Parts >= parts {
			break
		}
		parts = el.Parts
		phases++
	}
	t.AddRow("constant (classic)", itoa(phases), fmt.Sprintf("%.1f", float64(n)/float64(parts)), "-")
	t.Notes = append(t.Notes,
		fmt.Sprintf("target: mean part ≥ √n ≈ %d", target),
		"expected shape: quadratic needs ≈ log2 log n phases; constant needs ≈ log_Δ(√n)")
	return t, nil
}
