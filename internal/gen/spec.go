package gen

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/graph"
)

// Spec is a declarative description of one workload graph: the family name
// plus its parameters. It is the shared request format of cmd/wccgen and
// the internal/service generate endpoint, so both produce byte-identical
// graphs for the same spec.
type Spec struct {
	// Family is the graph family (see Families).
	Family string `json:"family"`
	// N is the vertex count (rows for grid, dimension for hypercube, ring
	// length for ringofcliques).
	N int `json:"n"`
	// D is the degree parameter (columns for grid, clique size for
	// ringofcliques).
	D int `json:"d"`
	// Sizes lists the component sizes for the "union" family.
	Sizes []int `json:"sizes,omitempty"`
	// Seed drives the randomized families.
	Seed uint64 `json:"seed"`
}

// specBuilders maps family name to constructor. Families that ignore a
// parameter simply do not read it.
var specBuilders = map[string]func(s Spec, rng *rand.Rand) (*graph.Graph, error){
	"expander": func(s Spec, rng *rand.Rand) (*graph.Graph, error) { return Expander(s.N, s.D, rng) },
	"gnd":      func(s Spec, rng *rand.Rand) (*graph.Graph, error) { return RandomGND(s.N, s.D, rng) },
	"cycle":    func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return Cycle(s.N), nil },
	"path":     func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return Path(s.N), nil },
	"grid":     func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return Grid(s.N, s.D), nil },
	"clique":   func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return Clique(s.N), nil },
	"star":     func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return Star(s.N), nil },
	"hypercube": func(s Spec, _ *rand.Rand) (*graph.Graph, error) {
		return Hypercube(s.N), nil
	},
	"ringofcliques": func(s Spec, _ *rand.Rand) (*graph.Graph, error) { return RingOfCliques(s.N, s.D) },
	"bridged":       func(s Spec, rng *rand.Rand) (*graph.Graph, error) { return TwoExpandersBridged(s.N, s.D, rng) },
	"union": func(s Spec, rng *rand.Rand) (*graph.Graph, error) {
		if len(s.Sizes) == 0 {
			return nil, fmt.Errorf("gen: family union requires sizes")
		}
		l, err := ExpanderUnion(s.Sizes, s.D, rng)
		if err != nil {
			return nil, err
		}
		return Shuffled(l, rng).G, nil
	},
}

// Families returns the supported family names in sorted order.
func Families() []string {
	names := make([]string, 0, len(specBuilders))
	for name := range specBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Cost estimates the vertices and edges a Spec would materialize,
// without building anything. Servers accepting untrusted specs use it to
// reject requests whose integer parameters demand more memory than the
// deployment is willing to allocate (a clique header is 30 bytes; the
// clique is O(n²)). Estimates are upper-bound-ish, not exact; unknown
// families report zero and fail in Build instead.
func (s Spec) Cost() (vertices, edges int64) {
	n, d := int64(s.N), int64(s.D)
	if n < 0 || d < 0 {
		return hugeCost, hugeCost
	}
	switch s.Family {
	case "cycle", "path":
		return n, n
	case "clique":
		return n, satMul(n, n) / 2
	case "star":
		return n, n
	case "grid":
		return satMul(n, d), satMul(2, satMul(n, d))
	case "hypercube":
		if n > 40 {
			return hugeCost, hugeCost
		}
		v := int64(1) << uint(n)
		return v, satMul(v, n) / 2
	case "ringofcliques":
		return satMul(n, d), satMul(n, satMul(d, d)/2+1)
	case "bridged":
		return satMul(2, n), satMul(n, d) + 1
	case "union":
		var total int64
		for _, sz := range s.Sizes {
			if sz < 0 {
				return hugeCost, hugeCost
			}
			total = satAdd(total, int64(sz))
		}
		return total, satMul(total, d) / 2
	case "expander", "gnd":
		return n, satMul(n, d)
	}
	return 0, 0
}

// hugeCost is the saturation value of Cost arithmetic: far beyond any
// buildable graph, but with headroom below MaxInt64 so callers comparing
// `cost > limit` never see a wrapped-negative estimate sneak past.
const hugeCost = int64(1) << 62

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > hugeCost/b {
		return hugeCost
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > hugeCost-b {
		return hugeCost
	}
	return a + b
}

// Build constructs the graph a Spec describes. The RNG derivation matches
// what cmd/wccgen has always used, so a given (family, n, d, sizes, seed)
// yields the same graph whether it came from the CLI or the service.
func (s Spec) Build() (*graph.Graph, error) {
	build, ok := specBuilders[s.Family]
	if !ok {
		names := Families()
		return nil, fmt.Errorf("gen: unknown family %q (supported: %v)", s.Family, names)
	}
	rng := rand.New(rand.NewPCG(s.Seed, 0xfeed))
	return build(s, rng)
}
