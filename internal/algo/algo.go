// Package algo is the unified registry of connectivity algorithms: one
// Algorithm interface over the paper's pipeline (internal/core, Theorem 1),
// the mildly-sublinear variant (internal/sublinear, Theorem 2), the
// four baselines (internal/baseline), the sequential incremental
// engine (internal/dynamic, registered as "dynamic"), and the native
// shared-memory solver (internal/parallel, registered as "parallel"),
// so that callers — cmd/wccfind, the experiment harness in
// internal/bench, and the internal/service query layer — select
// algorithms by name instead of hand-rolled switches.
//
// All registered algorithms return exact component labelings; they differ
// only in the rounds (and, for graph exponentiation, memory) they charge.
// For a fixed Options.Seed every algorithm is deterministic regardless of
// Options.Workers, and each declares (ReadsOf) which of Seed, λ and
// Memory can change its labeling, which makes (graph, name, the options
// it reads) a sound cache key for the labeling cache in internal/service.
//
// Every algorithm reads its input as a graph.View — the read-only edge
// collection of the paper's model. "parallel" and "dynamic" scan the
// view in place, so an out-of-core (mmap-backed) graph never becomes
// heap-resident; the simulated algorithms materialize it with
// graph.MaterializeView, which hands an in-RAM *graph.Graph back as is.
package algo

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/parallel"
	"repro/internal/sublinear"
)

// Options is the common knob set. Fields an algorithm does not use are
// ignored (λ only steers "wcc"; Memory only steers "sublinear"; the
// baselines are deterministic and ignore Seed).
type Options struct {
	// Lambda is the spectral-gap lower bound for "wcc" (0 = unknown,
	// Corollary 7.1 oblivious mode).
	Lambda float64
	// Seed drives all randomness.
	Seed uint64
	// Workers selects the execution engine. The simulated algorithms use
	// mpc.Config.Workers semantics (0/1 sequential, k > 1 bounded pool,
	// negative GOMAXPROCS); the native "parallel" solver deviates on the
	// zero value only — 0 means a GOMAXPROCS-wide pool there, because a
	// native serving path has no reason to idle cores by default.
	// Results are bit-identical for a fixed Seed regardless of the setting.
	Workers int
	// Memory is the machine memory s for "sublinear" (0 = n/log² n).
	Memory int
}

// Result is the algorithm-independent outcome: an exact labeling plus the
// cost accounting every implementation reports, with the richer
// per-algorithm statistics attached when available.
type Result struct {
	// Labels assigns every vertex a dense component label.
	Labels []graph.Vertex
	// Components is the number of connected components.
	Components int
	// Rounds is the MPC rounds charged.
	Rounds int
	// PeakEdges is the largest materialized edge set (exponentiation's
	// memory cost; equals m for the other algorithms).
	PeakEdges int
	// Core holds the full pipeline statistics when the algorithm was
	// "wcc"; nil otherwise.
	Core *core.Stats
	// Sublinear holds the Theorem 2 statistics when the algorithm was
	// "sublinear"; nil otherwise.
	Sublinear *sublinear.Stats
}

// Algorithm is one connectivity algorithm. Implementations must return
// exact components and be deterministic for a fixed Options.Seed.
type Algorithm interface {
	// Name is the registry key ("wcc", "sublinear", ...).
	Name() string
	// Find computes the connected components of the graph v. v is only
	// read, and only until Find returns.
	Find(v graph.View, opts Options) (*Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register adds an algorithm to the registry. It panics on a duplicate or
// empty name: registration happens at init time and a collision is a
// programming error.
func Register(a Algorithm) {
	name := a.Name()
	if name == "" {
		panic("algo: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("algo: duplicate Register(%q)", name))
	}
	registry[name] = a
}

// Get returns the named algorithm. The error lists the registered names,
// so CLIs and the HTTP service can surface it verbatim.
func Get(name string) (Algorithm, error) {
	regMu.RLock()
	a, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (registered: %s)", name, strings.Join(Names(), "|"))
	}
	return a, nil
}

// Names returns the registered algorithm names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Find is the one-shot convenience: look up name and run it on v.
func Find(name string, v graph.View, opts Options) (*Result, error) {
	a, err := Get(name)
	if err != nil {
		return nil, err
	}
	return a.Find(v, opts)
}

// CanonicalForm returns the canonical relabeling of a dense component
// labeling: graph.Densify's first-appearance renumbering, without the
// count. Two labelings describe the same partition iff their canonical
// forms are bit-identical.
func CanonicalForm(labels []graph.Vertex) []graph.Vertex {
	out, _ := graph.Densify(labels)
	return out
}

func init() {
	Register(wccAlgo{})
	Register(sublinearAlgo{})
	Register(dynamicAlgo{})
	Register(parallelAlgo{})
	Register(baselineAlgo{name: "hashtomin", run: func(sim *mpc.Sim, g *graph.Graph) (*baseline.Result, error) {
		return baseline.HashToMin(sim, g), nil
	}})
	Register(baselineAlgo{name: "boruvka", run: func(sim *mpc.Sim, g *graph.Graph) (*baseline.Result, error) {
		return baseline.Boruvka(sim, g), nil
	}})
	Register(baselineAlgo{name: "labelprop", run: func(sim *mpc.Sim, g *graph.Graph) (*baseline.Result, error) {
		return baseline.LabelPropagation(sim, g), nil
	}})
	Register(baselineAlgo{name: "exponentiate", run: func(sim *mpc.Sim, g *graph.Graph) (*baseline.Result, error) {
		return baseline.GraphExponentiation(sim, g, 0)
	}})
}

// wccAlgo wraps the paper's full pipeline (Theorem 1 / Corollary 7.1).
type wccAlgo struct{}

func (wccAlgo) Name() string { return "wcc" }

func (wccAlgo) Find(v graph.View, opts Options) (*Result, error) {
	g := graph.MaterializeView(v)
	res, err := core.FindComponents(g, core.Options{
		Lambda: opts.Lambda, Seed: opts.Seed, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:     res.Labels,
		Components: res.Components,
		Rounds:     res.Stats.Rounds,
		PeakEdges:  g.M(),
		Core:       &res.Stats,
	}, nil
}

// sublinearAlgo wraps SublinearConn (Theorem 2).
type sublinearAlgo struct{}

func (sublinearAlgo) Name() string { return "sublinear" }

func (sublinearAlgo) Find(v graph.View, opts Options) (*Result, error) {
	g := graph.MaterializeView(v)
	res, err := sublinear.Components(g, sublinear.Options{
		MachineMemory: opts.Memory, Seed: opts.Seed, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:     res.Labels,
		Components: res.Components,
		Rounds:     res.Stats.Rounds,
		PeakEdges:  g.M(),
		Sublinear:  &res.Stats,
	}, nil
}

// dynamicAlgo is the sequential incremental engine (internal/dynamic)
// run to completion over a static graph: union-find absorption of every
// edge, zero MPC rounds charged. It doubles as the registry's fastest
// exact reference and as the solver behind the service's versioned
// append path, where its labelings are maintained across batches instead
// of recomputed.
type dynamicAlgo struct{}

func (dynamicAlgo) Name() string { return "dynamic" }

func (dynamicAlgo) Find(v graph.View, opts Options) (*Result, error) {
	e := dynamic.FromGraph(v)
	return &Result{
		Labels:     e.Labels(),
		Components: e.Components(),
		Rounds:     0, // sequential; charges no MPC rounds
		PeakEdges:  v.NumEdges(),
	}, nil
}

// parallelAlgo wraps the native shared-memory solver (internal/parallel):
// Afforest-style neighbor sampling plus a lock-free concurrent
// union-find on the executor pool, no MPC simulation and so no rounds
// charged. It is the service's default solve path; the paper algorithms
// remain the research/verify path. The closing canonical relabeling
// makes its output a pure function of the partition, so it is
// bit-identical across Seed, Workers, and schedule — it reads no
// option that can change a labeling, like the baselines.
type parallelAlgo struct{}

func (parallelAlgo) Name() string { return "parallel" }

func (parallelAlgo) Find(v graph.View, opts Options) (*Result, error) {
	res := parallel.ComponentsView(v, parallel.Options{Seed: opts.Seed, Workers: opts.Workers})
	return &Result{
		Labels:     res.Labels,
		Components: res.Components,
		Rounds:     0, // native shared-memory; charges no MPC rounds
		PeakEdges:  v.NumEdges(),
	}, nil
}

// baselineAlgo adapts the internal/baseline implementations, deriving the
// same auto-sized cluster that cmd/wccfind and internal/bench previously
// duplicated by hand.
type baselineAlgo struct {
	name string
	run  func(sim *mpc.Sim, g *graph.Graph) (*baseline.Result, error)
}

func (b baselineAlgo) Name() string { return b.name }

func (b baselineAlgo) Find(v graph.View, opts Options) (*Result, error) {
	g := graph.MaterializeView(v)
	res, err := b.run(AutoSim(g, opts.Workers), g)
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:     res.Labels,
		Components: res.Components,
		Rounds:     res.Rounds,
		PeakEdges:  res.PeakEdges,
	}, nil
}

// AutoSim sizes a simulated cluster for g's edge set the way every
// baseline call site always has — 2m records, s = (2m)^0.5 scaled by the
// ×2 safety factor, sequential unless workers says otherwise. It is the
// single copy of that policy: the registry and the experiment harness
// both derive their clusters here, so their round counts stay comparable.
func AutoSim(g *graph.Graph, workers int) *mpc.Sim {
	records := 2 * g.M()
	if records < 16 {
		records = 16
	}
	cfg := mpc.AutoConfig(records, 0.5, 2)
	cfg.Workers = workers
	return mpc.New(cfg)
}

// Reads is the set of Options fields that can change an algorithm's
// labeling. Workers never can, so it has no bit.
type Reads uint8

const (
	ReadsSeed Reads = 1 << iota
	ReadsLambda
	ReadsMemory
)

// ReadsOf returns the options the named algorithm's labeling depends
// on: seed and λ for "wcc", seed and memory for "sublinear", nothing
// for the rest — the baselines and "dynamic" are deterministic, and
// "parallel"'s seed steers heuristics, never output. Unknown names read
// nothing; callers that need them known check Get first.
func ReadsOf(name string) Reads {
	switch name {
	case "wcc":
		return ReadsSeed | ReadsLambda
	case "sublinear":
		return ReadsSeed | ReadsMemory
	}
	return 0
}

// Canonical zeroes the fields of o outside r, Workers included, so
// caches keyed on (graph, name, options) neither split nor re-run
// identical labelings.
func (r Reads) Canonical(o Options) Options {
	c := Options{}
	if r&ReadsSeed != 0 {
		c.Seed = o.Seed
	}
	if r&ReadsLambda != 0 {
		c.Lambda = o.Lambda
	}
	if r&ReadsMemory != 0 {
		c.Memory = o.Memory
	}
	return c
}
