package repro

// Micro-benchmarks of the pipeline, the baselines and the substrates.
// The pipeline benchmarks report the quantity the paper's theorems
// bound — MPC rounds — as a custom metric next to wall-clock time. The
// experiment tables themselves are internal/bench's, regenerated by
// cmd/wccbench (quick sizes run as tests there); the gated end-to-end
// performance numbers are perfbench's.

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/expander"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/randomize"
	"repro/internal/randwalk"
	"repro/internal/sketch"
	"repro/internal/spectral"
	"repro/internal/sublinear"
	"repro/internal/xproduct"
)

// benchmarkPipeline runs the full Theorem 1 pipeline on a single expander
// with the given executor width and reports the round count as a metric.
func benchmarkPipeline(b *testing.B, workers int) {
	rng := rand.New(rand.NewPCG(1, 1))
	g, err := gen.Expander(512, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.FindComponents(g, core.Options{Lambda: 0.3, Seed: uint64(i), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "mpc-rounds")
}

// BenchmarkPipelineExpander measures the sequential executor.
func BenchmarkPipelineExpander(b *testing.B) { benchmarkPipeline(b, 1) }

// BenchmarkPipelineExpanderParallel measures the GOMAXPROCS-wide worker
// pool. Output is bit-identical to the sequential run for the same seed;
// only wall-clock differs (and only when GOMAXPROCS > 1).
func BenchmarkPipelineExpanderParallel(b *testing.B) { benchmarkPipeline(b, -1) }

// BenchmarkBaselineHashToMin is the comparison point for the pipeline.
func BenchmarkBaselineHashToMin(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	g, err := gen.Expander(512, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := algo.Find("hashtomin", g, algo.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "mpc-rounds")
}

// BenchmarkSublinearGrid exercises the Theorem 2 path end to end.
func BenchmarkSublinearGrid(b *testing.B) {
	g := gen.Grid(16, 16)
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sublinear.Components(g, sublinear.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "mpc-rounds")
}

// --- substrate micro-benchmarks ---

func BenchmarkGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	const n, m = 10000, 40000
	us := make([]graph.Vertex, m)
	vs := make([]graph.Vertex, m)
	for i := range us {
		us[i] = graph.Vertex(rng.IntN(n))
		vs[i] = graph.Vertex(rng.IntN(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := graph.NewBuilderHint(n, m)
		for j := range us {
			bd.AddEdge(us[j], vs[j])
		}
		_ = bd.Build()
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	const n = 100000
	pairs := make([][2]graph.Vertex, n)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uf := graph.NewUnionFind(n)
		for _, p := range pairs {
			uf.Union(p[0], p[1])
		}
	}
}

func BenchmarkLambda2Expander(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	g, err := gen.Expander(2000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spectral.Lambda2(g)
	}
}

func BenchmarkMPCSort(b *testing.B) {
	items := make([]uint64, 100000)
	rng := rand.New(rand.NewPCG(6, 6))
	for i := range items {
		items[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1024, Machines: 128})
		d := mpc.Distribute(sim, items)
		_ = mpc.SortByKey(sim, d, func(v uint64) uint64 { return v })
	}
}

func BenchmarkReplacementProduct(b *testing.B) {
	g := gen.Star(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf := xproduct.NewExpanderClouds(8, 0.25, rand.New(rand.NewPCG(uint64(i), 9)))
		if _, err := xproduct.Replacement(g, cf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpanderSample(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expander.SamplePermutationRegular(4096, 16, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectWalks(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	g, err := gen.Expander(1000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 16})
		if _, err := randwalk.DirectWalks(sim, g, 64, 8, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectWalksLazy is one Step 2 walk batch in the shape of
// perfbench's mpc-reference solve: k = 40 lazy walks of T = 1009 steps
// from every vertex of a 9-regular expander, staying put with
// randomize.LazyStay = 2/3 — the law of the expander with 9 self-loops
// (27 adjacency entries per vertex). Each walk draws its move count once
// and takes only its moves. It walks 4 directBlock-sized blocks (1024
// vertices), so one iteration stays well under a second, and reports
// wall time per lazy step (n·k·T, stays included), so the figure
// compares with a walker that draws every step; run it with -cpu 1 for
// the single-core kernel.
func BenchmarkDirectWalksLazy(b *testing.B) {
	const n, t, k = 1024, 1009, 40
	rng := rand.New(rand.NewPCG(11, 11))
	ex, err := gen.Expander(n, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	// A random perfect matching on top of the 8-regular expander makes it
	// 9-regular, the degree the regularizer gives the mpc-reference input.
	bld := graph.NewBuilderHint(n, ex.M()+n/2)
	ex.ForEachEdge(func(e graph.Edge) { bld.AddEdge(e.U, e.V) })
	perm := rng.Perm(n)
	for i := 0; i < n; i += 2 {
		bld.AddEdge(graph.Vertex(perm[i]), graph.Vertex(perm[i+1]))
	}
	h := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 16, Workers: -1})
		if _, err := randwalk.DirectWalks(sim, h, t, k, randomize.LazyStay, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n*k*t), "ns/step")
}

// BenchmarkRandomizeBatches is Step 2 in the shape of perfbench's
// mpc-reference solve: three Direct-engine batches of k = 40 lazy walks
// from every vertex of an 8192-vertex regular expander (the size of the
// regularized graph there), on the GOMAXPROCS-wide pool. Three batches
// do not divide evenly over two CPUs, so the last batch runs alone unless
// its walk blocks recruit the CPU the other batch frees; run it with
// -cpu 2 to see that. The walks are 128 steps, not mpc-reference's 1009,
// so one iteration stays under a second.
func BenchmarkRandomizeBatches(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	g, err := gen.Expander(8192, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := randomize.Params{WalksPerVertex: 40, Engine: randomize.EngineDirect}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: 16, Workers: -1})
		if _, _, err := randomize.Batches(sim, g, 128, 3, params, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayeredWalk(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	g, err := gen.Expander(256, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1 << 20, Machines: 16})
		if _, err := randwalk.SimpleRandomWalk(sim, g, 32, randwalk.PaperParams(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAllocs is the allocation-regression guard for the shuffle
// path: run with -benchmem. One Route round over 128 machines must stay at
// O(machines) allocations (the old per-(src,dest) outbox matrix allocated
// O(machines²) slices per round).
func BenchmarkRouteAllocs(b *testing.B) {
	const nm = 128
	sim := mpc.New(mpc.Config{MachineMemory: 1 << 16, Machines: nm})
	items := make([]int, 16*nm)
	for i := range items {
		items[i] = i * 2654435761 % (1 << 20)
	}
	d := mpc.Distribute(sim, items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mpc.Route(sim, d, func(_ int, xs []int, send func(int, int)) {
			for _, x := range xs {
				send(x, x)
			}
		})
	}
}

// BenchmarkIndependentWalksParallel compares the Theorem 3 repetition
// fan-out at 1 worker versus GOMAXPROCS workers (run with -benchmem; the
// outputs are bit-identical, so any delta is pure scheduling).
func BenchmarkIndependentWalksParallel(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", -1}} {
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(9, 9))
			g, err := gen.Expander(256, 8, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim := mpc.New(mpc.Config{MachineMemory: 1 << 20, Machines: 16, Workers: v.workers})
				if _, _, err := randwalk.IndependentWalks(sim, g, 16, randwalk.PaperParams(), rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPCSortParallel is BenchmarkMPCSort on the GOMAXPROCS pool
// (per-shard sorts fan out; the merge is shared).
func BenchmarkMPCSortParallel(b *testing.B) {
	items := make([]uint64, 100000)
	rng := rand.New(rand.NewPCG(6, 6))
	for i := range items {
		items[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mpc.New(mpc.Config{MachineMemory: 1024, Machines: 128, Workers: -1})
		d := mpc.Distribute(sim, items)
		_ = mpc.SortByKey(sim, d, func(v uint64) uint64 { return v })
	}
}

func BenchmarkL0SamplerUpdate(b *testing.B) {
	s, err := sketch.NewL0Sampler(1<<40, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Update(int64(i%(1<<40)), 1)
	}
}

func BenchmarkAGMSketchComponents(b *testing.B) {
	g := gen.Cycle(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := sketch.NewConnectivitySketch(g.N(), 0, 3, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.AddGraph(g); err != nil {
			b.Fatal(err)
		}
		_, count, _ := cs.Components()
		if count != 1 {
			b.Fatalf("sketch split the cycle into %d", count)
		}
	}
}

// BenchmarkBinaryCodec measures the WCCB1 binary CSR codec (the compact
// file format of wccgen/wccfind -format binary) round trip against the
// text edge list on a generated workload, reporting both sizes. That
// binary stays smaller than text is asserted per generator family by
// internal/graph's TestBinaryRoundTripAllGenFamilies.
func BenchmarkBinaryCodec(b *testing.B) {
	g, err := gen.Spec{Family: "gnd", N: 20000, D: 8, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(bin.Len()), "binB")
	b.ReportMetric(float64(text.Len()), "textB")
	b.ReportMetric(float64(text.Len())/float64(bin.Len()), "ratio")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin.Reset()
		if err := graph.WriteBinary(&bin, g); err != nil {
			b.Fatal(err)
		}
		g2, err := graph.ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if g2.M() != g.M() {
			b.Fatalf("round trip changed m: %d -> %d", g.M(), g2.M())
		}
	}
}

// BenchmarkTextCodec is the baseline BenchmarkBinaryCodec is compared
// against: the same round trip through the text edge-list format.
func BenchmarkTextCodec(b *testing.B) {
	g, err := gen.Spec{Family: "gnd", N: 20000, D: 8, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			b.Fatal(err)
		}
		g2, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if g2.M() != g.M() {
			b.Fatalf("round trip changed m: %d -> %d", g.M(), g2.M())
		}
	}
}

// The native-vs-MPC solve pair: the same expander solved by the
// service's native default ("parallel", internal/parallel) and by the
// paper pipeline ("wcc", with its spectral gap known — the pipeline's
// cheapest mode) that it replaced as the default. Both get the full
// GOMAXPROCS-wide executor, so the delta isolates what serving traffic
// stops paying for — MPC simulation (message materialization, round
// barriers, shuffle routing) — not parallelism. perfbench measures the
// same gap at scale: parallel.solve_edges_per_s ÷ core.solve_edges_per_s
// ≈ 67 000. wccstream -verify still runs the paper path.
func solveBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewPCG(8, 8))
	g, err := gen.Expander(512, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchmarkSolve(b *testing.B, name string) {
	g := solveBenchGraph(b)
	components := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := algo.Find(name, g, algo.Options{Seed: 8, Lambda: 0.3, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		components = res.Components
	}
	b.ReportMetric(float64(components), "components")
}

func BenchmarkSolveNative(b *testing.B) { benchmarkSolve(b, "parallel") }
func BenchmarkSolveMPC(b *testing.B)    { benchmarkSolve(b, "wcc") }

// BenchmarkSolveMapped is the out-of-core member of the pair: the same
// graph solved by "parallel" over a WCCM1 image (a MappedGraph view,
// scanned in place) instead of the in-RAM CSR. The delta against
// SolveNative is the price of reading adjacency through the mapped
// layout (zero-copy subslices here, as on a little-endian mmap) rather
// than native slices. perfbench measures it over a real mmap:
// parallel.solve_mapped_edges_per_s ÷ parallel.solve_edges_per_s = 0.99.
func BenchmarkSolveMapped(b *testing.B) {
	g := solveBenchGraph(b)
	var buf bytes.Buffer
	if err := graph.WriteMapped(&buf, g); err != nil {
		b.Fatal(err)
	}
	mg, err := graph.OpenMappedSource(graph.NewBytesSource(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	components := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := algo.Find("parallel", mg, algo.Options{Seed: 8, Lambda: 0.3, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		components = res.Components
	}
	b.ReportMetric(float64(components), "components")
}
