package randwalk

import (
	"flag"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/expander"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// TestMain raises GOMAXPROCS above the machine's CPU count so the worker
// pool actually interleaves goroutines even on single-core CI boxes and
// the determinism claims below are tested against real concurrency.
func TestMain(m *testing.M) {
	flag.Parse()
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func simWorkers(workers int) *mpc.Sim {
	return mpc.New(mpc.Config{MachineMemory: 1 << 20, Machines: 16, Workers: workers})
}

func testGraph(t *testing.T, kind string) *graph.Graph {
	t.Helper()
	switch kind {
	case "expander":
		g, err := expander.SamplePermutationRegular(48, 6, rand.New(rand.NewPCG(42, 7)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	case "cycle":
		return gen.Cycle(37)
	case "grid":
		return gen.Grid(6, 6)
	default:
		t.Fatalf("unknown graph kind %q", kind)
		return nil
	}
}

// The satellite determinism requirement: for a fixed seed, the parallel
// executors must produce byte-identical WalkSet output (and identical
// round/stats accounting) to the sequential executor, regardless of how
// instances and chunks are scheduled.
func TestWalksDeterministicAcrossExecutors(t *testing.T) {
	cases := []struct {
		name   string
		graph  string
		t      int
		params Params
	}{
		{"paper-width-expander", "expander", 8, PaperParams()},
		{"practical-expander", "expander", 16, PracticalParams()},
		{"narrow-cycle", "cycle", 15, Params{Width: 3, MaxInstances: 6}},
		{"collect-paths-grid", "grid", 12, Params{Width: 4, MaxInstances: 4, CollectPaths: true}},
		{"t-zero", "cycle", 0, PaperParams()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, tc.graph)
			type outcome struct {
				ws     *WalkSet
				stats  Stats
				rounds int
				sim    mpc.Stats
			}
			run := func(workers int) outcome {
				s := simWorkers(workers)
				ws, stats, err := IndependentWalks(s, g, tc.t, tc.params, rand.New(rand.NewPCG(99, 17)))
				if err != nil {
					t.Fatal(err)
				}
				return outcome{ws: ws, stats: stats, rounds: s.Rounds(), sim: s.Stats()}
			}
			want := run(1)
			for _, workers := range []int{2, 4, 16} {
				got := run(workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: IndependentWalks diverged from sequential", workers)
				}
			}
		})
	}
}

func TestSimpleRandomWalkDeterministicAcrossExecutors(t *testing.T) {
	g := testGraph(t, "expander")
	run := func(workers int) *WalkSet {
		ws, err := SimpleRandomWalk(simWorkers(workers), g, 16, PaperParams(), rand.New(rand.NewPCG(3, 5)))
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	want := run(1)
	for _, workers := range []int{4, 16} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: SimpleRandomWalk diverged from sequential", workers)
		}
	}
}

func TestCollectTargetsDeterministicAcrossExecutors(t *testing.T) {
	g := testGraph(t, "expander")
	run := func(workers int) ([][]graph.Vertex, float64) {
		targets, frac, err := CollectTargets(simWorkers(workers), g, 8, 5, PracticalParams(), rand.New(rand.NewPCG(11, 13)))
		if err != nil {
			t.Fatal(err)
		}
		return targets, frac
	}
	wantT, wantF := run(1)
	for _, workers := range []int{4, 16} {
		gotT, gotF := run(workers)
		if gotF != wantF || !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("workers=%d: CollectTargets diverged from sequential", workers)
		}
	}
}

func TestDirectWalksDeterministicAcrossExecutors(t *testing.T) {
	g := testGraph(t, "grid")
	run := func(workers int) [][]graph.Vertex {
		targets, err := DirectWalks(simWorkers(workers), g, 32, 6, 0, rand.New(rand.NewPCG(21, 23)))
		if err != nil {
			t.Fatal(err)
		}
		return targets
	}
	want := run(1)
	for _, workers := range []int{4, 16} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: DirectWalks diverged from sequential", workers)
		}
	}
}

func TestDirectVisitedDeterministicAcrossExecutors(t *testing.T) {
	g := testGraph(t, "cycle")
	run := func(workers int) ([][]graph.Vertex, []graph.Vertex) {
		visited, target, err := DirectVisited(simWorkers(workers), g, 40, rand.New(rand.NewPCG(31, 37)))
		if err != nil {
			t.Fatal(err)
		}
		return visited, target
	}
	wantV, wantT := run(1)
	for _, workers := range []int{4, 16} {
		gotV, gotT := run(workers)
		if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("workers=%d: DirectVisited diverged from sequential", workers)
		}
	}
}
