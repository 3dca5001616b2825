// Package expander implements the paper's randomized constant-degree
// expander construction (Section 4, "Parallel Expander Construction"):
// random d-regular graphs sampled as unions of d/2 uniform permutations
// (Eq. (1)), which by Friedman's theorem (Proposition 4.3) are near-Ramanujan
// with high probability — for d = 100, λ2 ≥ 4/5 (Corollary 4.4).
//
// Both a host-side sampler and the MPC algorithm RegularGraphConstruction
// of Lemma 4.5 are provided. The MPC version builds permutations for blocks
// larger than machine memory by sorting random keys, exactly as in the
// paper, and charges the corresponding O(1/δ) rounds.
package expander

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/spectral"
)

// PaperDegree is the cloud degree d = 100 fixed by the paper (Corollary
// 4.4); PaperGapTarget is the spectral gap λ2 ≥ 4/5 it certifies.
const (
	PaperDegree    = 100
	PaperGapTarget = 0.8
)

// SamplePermutationRegular samples a d-regular multigraph on n vertices as
// the union of d/2 uniformly random permutations π_1..π_{d/2}, with edge
// set {(i, π_j(i))} per Eq. (1) of the paper. Self-loops and parallel edges
// are allowed (a self-loop contributes 2 to the degree, so the graph is
// exactly d-regular for every n ≥ 1). d must be positive and even.
func SamplePermutationRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d <= 0 || d%2 != 0 {
		return nil, fmt.Errorf("expander: degree %d must be positive and even", d)
	}
	if n < 1 {
		return nil, fmt.Errorf("expander: need at least one vertex, got %d", n)
	}
	b := graph.NewBuilderHint(n, n*d/2)
	perm := make([]graph.Vertex, n)
	for j := 0; j < d/2; j++ {
		for i := range perm {
			perm[i] = graph.Vertex(i)
		}
		rng.Shuffle(n, func(a, c int) { perm[a], perm[c] = perm[c], perm[a] })
		for i := 0; i < n; i++ {
			b.AddEdge(graph.Vertex(i), perm[i])
		}
	}
	return b.Build(), nil
}

// SampleExpander resamples SamplePermutationRegular until the spectral gap
// reaches gapTarget, as in step 1 of RegularGraphConstruction ("repeat the
// following process until λ2(H_{n_i}) ≥ 4/5"). Clouds with at most d+1
// vertices skip the gap check: their λ2 is automatically Ω(1) (they are
// dense multigraphs) and the exact eigensolve is wasted work. Returns an
// error after maxTries failures — by Proposition 4.3 this is vanishingly
// unlikely at the paper's parameters.
func SampleExpander(n, d int, gapTarget float64, maxTries int, rng *rand.Rand) (*graph.Graph, error) {
	if maxTries < 1 {
		maxTries = 1
	}
	var lastGap float64
	for try := 0; try < maxTries; try++ {
		g, err := SamplePermutationRegular(n, d, rng)
		if err != nil {
			return nil, err
		}
		if n <= d+1 {
			return g, nil
		}
		lastGap = spectral.Lambda2(g)
		if lastGap >= gapTarget {
			return g, nil
		}
	}
	return nil, fmt.Errorf("expander: gap target %.3f not reached in %d tries (last %.3f, n=%d d=%d)",
		gapTarget, maxTries, lastGap, n, d)
}

// permRecord is one sampled key in the sort-based permutation construction
// of Lemma 4.5 step 2: vertex j of block with random key v ∈ [n^10].
type permRecord struct {
	j   int32
	key uint64
}

// ConstructMPC is RegularGraphConstruction(m^δ, n_1..n_k) from Lemma 4.5:
// it builds one random d-regular graph per requested size on the simulated
// cluster. Sizes at most the machine memory are built locally (step 1) by
// machines holding whole blocks; larger sizes derive each permutation by
// sampling random keys and sorting them (step 2), paying the O(1/δ)-round
// sort. The aggregate round cost is O(1/δ) because the d/2 sorts of
// different permutations and different blocks run on disjoint machines in
// parallel; the simulator charges the maximum single sort cost.
func ConstructMPC(sim *mpc.Sim, sizes []int, d int, gapTarget float64, rng *rand.Rand) ([]*graph.Graph, error) {
	if d <= 0 || d%2 != 0 {
		return nil, fmt.Errorf("expander: degree %d must be positive and even", d)
	}
	s := sim.Config().MachineMemory
	out := make([]*graph.Graph, len(sizes))

	// Step 1: small blocks, each built entirely within one machine. One
	// local-computation round regardless of how many blocks there are.
	smallWork := false
	maxLarge := 0
	for _, ni := range sizes {
		if ni <= s {
			smallWork = true
		} else if ni > maxLarge {
			maxLarge = ni
		}
	}
	for i, ni := range sizes {
		if ni > s {
			continue
		}
		g, err := SampleExpander(ni, d, gapTarget, 64, rng)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	if smallWork {
		sim.Charge(1, "expander:local")
	}

	// Step 2: large blocks via sorted random keys. All blocks and all d/2
	// permutations are independent and run on disjoint machine groups, so
	// the round cost is that of the largest single sort; we charge it once
	// and simulate the data movement of each sort without re-charging.
	if maxLarge > 0 {
		sortCharge := sim.SortRounds(maxLarge)
		sim.Charge(sortCharge, "expander:sort")
		for i, ni := range sizes {
			if ni <= s {
				continue
			}
			g, err := constructLargeBlock(sim, ni, d, rng)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
	}
	return out, nil
}

// constructLargeBlock builds one d-regular graph on ni > s vertices by the
// sort-based permutation derivation. Round cost is charged by the caller
// (the sorts of all blocks overlap); here we pass a throwaway Sim to the
// sort so data movement and memory limits are still exercised.
func constructLargeBlock(sim *mpc.Sim, ni, d int, rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilderHint(ni, ni*d/2)
	for j := 0; j < d/2; j++ {
		// Sample v_{n_i,j,k} uniformly; duplicates would bias the derived
		// permutation (the paper bounds their probability by n^-8 with keys
		// in [n^10]; with 64-bit keys a collision is ~n²/2^64), so resample
		// on the rare collision rather than accept bias.
		records := make([]permRecord, ni)
		for attempt := 0; ; attempt++ {
			seen := make(map[uint64]struct{}, ni)
			ok := true
			for v := 0; v < ni; v++ {
				key := rng.Uint64()
				if _, dup := seen[key]; dup {
					ok = false
					break
				}
				seen[key] = struct{}{}
				records[v] = permRecord{j: int32(v), key: key}
			}
			if ok {
				break
			}
			if attempt > 16 {
				return nil, fmt.Errorf("expander: persistent key collisions for block of %d", ni)
			}
		}
		// Sort by key on a sub-simulation (round cost charged by caller;
		// memory behaviour still validated against the same machine size)
		// that runs on the caller's executor.
		sub := mpc.New(mpc.Config{
			MachineMemory: sim.Config().MachineMemory,
			Machines:      (ni+sim.Config().MachineMemory-1)/sim.Config().MachineMemory + 1,
			Executor:      sim.Executor(),
		})
		sorted := mpc.SortByKey(sub, mpc.Distribute(sub, records), func(r permRecord) uint64 { return r.key })
		if err := sub.Err(); err != nil {
			return nil, fmt.Errorf("expander: block sort: %w", err)
		}
		sim.AbsorbLoad(sub)
		// π(j) = rank of j's key; edge (j, π(j)).
		rank := 0
		for m := 0; m < sorted.NumShards(); m++ {
			for _, r := range sorted.Shard(m) {
				b.AddEdge(graph.Vertex(r.j), graph.Vertex(rank))
				rank++
			}
		}
	}
	return b.Build(), nil
}
