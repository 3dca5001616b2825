package mpc

import (
	"flag"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain raises GOMAXPROCS above the machine's CPU count so the worker
// pool's global token budget is non-empty even on single-core CI boxes:
// the determinism tests below then exercise real goroutine interleaving,
// not the degenerate inline path.
func TestMain(m *testing.M) {
	flag.Parse()
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestPoolRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		ex := NewPool(workers)
		const n = 1000
		hits := make([]int32, n)
		ex.Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestNestedPoolRunDoesNotDeadlock(t *testing.T) {
	ex := NewPool(4)
	var total atomic.Int64
	ex.Run(8, func(i int) {
		ex.Run(8, func(j int) {
			ex.Run(4, func(k int) { total.Add(1) })
		})
	})
	if got := total.Load(); got != 8*8*4 {
		t.Fatalf("nested Run executed %d leaf calls, want %d", got, 8*8*4)
	}
}

// withProcs runs f with GOMAXPROCS set to procs, restoring the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"). The tests below use it to tell the
// goroutine that called Run from the helpers Run started.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// pairProbe is the inner loop of the lending and late-recruit tests: each
// body waits up to pairWait for a second body to be running beside it.
// Bodies that find no partner return one by one, so a loop that never
// gains a second worker ends after len × pairWait instead of hanging.
type pairProbe struct {
	started atomic.Bool // an inner body has begun
	active  atomic.Int32
	paired  atomic.Bool // two bodies ran at once
}

const (
	pairBodies = 100
	pairWait   = 20 * time.Millisecond
)

func (p *pairProbe) run(ex Executor) {
	ex.Run(pairBodies, func(int) {
		p.started.Store(true)
		if p.active.Add(1) >= 2 {
			p.paired.Store(true)
		}
		for deadline := time.Now().Add(pairWait); !p.paired.Load() && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		p.active.Add(-1)
	})
}

// waitFor polls cond until it holds or a second has passed.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// An outer Run(2) at GOMAXPROCS 2 (a budget of one token) whose caller
// finishes its index at once while the helper's index runs an inner loop:
// the caller has nothing left to claim, so it must lend its CPU, and the
// inner loop must recruit onto it. Without lending the helper holds the
// only token and the inner bodies run one at a time.
func TestPoolRunLendsWaitingCallersCPU(t *testing.T) {
	withProcs(2, func() {
		ex := NewPool(2)
		caller := goid()
		var started atomic.Int32
		var probe pairProbe
		ex.Run(2, func(int) {
			started.Add(1)
			if !waitFor(func() bool { return started.Load() == 2 }) {
				t.Error("the two outer indices never ran on separate goroutines")
				return
			}
			if goid() != caller {
				probe.run(ex)
			}
		})
		if !probe.paired.Load() {
			t.Error("inner loop never ran two bodies at once: the waiting caller did not lend its CPU")
		}
	})
	if got := tokensInUse.Load(); got != 0 {
		t.Errorf("tokens in use after Run = %d, want 0", got)
	}
}

// The same shape with the roles swapped: the helper's index returns first
// and frees the only token after the caller's inner loop has already
// started (and found the budget spent). The inner loop must recruit that
// token on a later index claim.
func TestPoolRunRecruitsLate(t *testing.T) {
	withProcs(2, func() {
		ex := NewPool(2)
		caller := goid()
		var started atomic.Int32
		var probe pairProbe
		ex.Run(2, func(int) {
			started.Add(1)
			if !waitFor(func() bool { return started.Load() == 2 }) {
				t.Error("the two outer indices never ran on separate goroutines")
				return
			}
			if goid() == caller {
				probe.run(ex)
			} else if !waitFor(probe.started.Load) {
				t.Error("the caller's inner loop never started")
			}
		})
		if !probe.paired.Load() {
			t.Error("inner loop never ran two bodies at once: the freed token was not recruited")
		}
	})
	if got := tokensInUse.Load(); got != 0 {
		t.Errorf("tokens in use after Run = %d, want 0", got)
	}
}

// Late recruiting and lending must not break the budget: under a
// three-level nested Run, at most GOMAXPROCS leaf bodies are ever running
// at once, and every token is back when the top-level Run returns.
func TestPoolRunNeverOversubscribes(t *testing.T) {
	for _, procs := range []int{2, 4} {
		withProcs(procs, func() {
			ex := NewPool(16)
			var active, peak, total atomic.Int64
			ex.Run(5, func(i int) {
				ex.Run(3+i, func(j int) {
					ex.Run(7, func(int) {
						a := active.Add(1)
						for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
						}
						if (i+j)%3 == 0 {
							time.Sleep(20 * time.Microsecond)
						} else {
							runtime.Gosched()
						}
						active.Add(-1)
						total.Add(1)
					})
				})
			})
			if want := int64(7 * (3 + 4 + 5 + 6 + 7)); total.Load() != want {
				t.Errorf("GOMAXPROCS=%d: %d leaf bodies ran, want %d", procs, total.Load(), want)
			}
			if p := peak.Load(); p > int64(procs) {
				t.Errorf("GOMAXPROCS=%d: %d leaf bodies ran at once", procs, p)
			}
			if got := tokensInUse.Load(); got != 0 {
				t.Errorf("GOMAXPROCS=%d: tokens in use after Run = %d, want 0", procs, got)
			}
		})
	}
}

func TestRunChunksPartitionsExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100, 1001} {
		for _, ex := range []Executor{Sequential, NewPool(4)} {
			hits := make([]int32, n)
			RunChunks(ex, n, func(lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Fatalf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d: index %d covered %d times", n, i, h)
				}
			}
		}
	}
}

func TestNewPoolClamps(t *testing.T) {
	if ex := NewPool(1); ex != Sequential {
		t.Error("NewPool(1) should be the sequential executor")
	}
	if w := NewPool(-1).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(-1).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := NewPool(7).Workers(); w != 7 {
		t.Errorf("NewPool(7).Workers() = %d", w)
	}
}

func TestConfigExecutorResolution(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int // expected Workers() of the resolved executor
	}{
		{Config{}, 1},
		{Config{Workers: 1}, 1},
		{Config{Workers: 6}, 6},
		{Config{Workers: -1}, runtime.GOMAXPROCS(0)},
		{Config{Executor: NewPool(3)}, 3},
	}
	for _, tt := range tests {
		if got := tt.cfg.executor().Workers(); got != tt.want {
			t.Errorf("executor(%+v).Workers() = %d, want %d", tt.cfg, got, tt.want)
		}
	}
}

func TestStreamRNGStreamsAreStableAndDistinct(t *testing.T) {
	a1 := StreamRNG(1, 2, 0)
	a2 := StreamRNG(1, 2, 0)
	b := StreamRNG(1, 2, 1)
	var sameAsA, sameAsB int
	for i := 0; i < 64; i++ {
		x := a1.Uint64()
		if x == a2.Uint64() {
			sameAsA++
		}
		if x == b.Uint64() {
			sameAsB++
		}
	}
	if sameAsA != 64 {
		t.Error("StreamRNG is not deterministic for a fixed (seed, stream)")
	}
	if sameAsB > 1 {
		t.Errorf("streams 0 and 1 agree on %d/64 draws; want decorrelated", sameAsB)
	}
}

// The satellite determinism requirement: every primitive must produce
// byte-identical output and accounting under the sequential executor and
// any worker pool.
func TestPrimitivesDeterministicAcrossExecutors(t *testing.T) {
	type result struct {
		mapped  []int
		routed  []int
		byKey   []int
		sorted  []uint64
		searche []Pair[uint64, uint64]
		sum     int
		stats   Stats
		rounds  int
	}
	run := func(workers int) result {
		s := New(Config{MachineMemory: 1 << 10, Machines: 13, Workers: workers})
		items := make([]int, 700)
		for i := range items {
			items[i] = (i * 131) % 977
		}
		d := Distribute(s, items)
		mapped := Map(s, d, func(m int, xs []int) []int {
			out := make([]int, len(xs))
			for i, x := range xs {
				out[i] = x*3 + m
			}
			return out
		})
		routed := Route(s, mapped, func(_ int, xs []int, send func(int, int)) {
			for _, x := range xs {
				send(x%17-3, x) // includes out-of-range dests (wrap path)
			}
		})
		grouped := ByKey(s, routed, func(v int) uint64 { return uint64(v % 37) })
		keys := make([]uint64, 0, 700)
		for m := 0; m < grouped.NumShards(); m++ {
			for _, v := range grouped.Shard(m) {
				keys = append(keys, uint64(v))
			}
		}
		dk := Distribute(s, keys)
		sorted := SortByKey(s, dk, func(v uint64) uint64 { return v % 97 }) // heavy ties
		recs := Distribute(s, []uint64{5, 10, 20})
		found := ParallelSearch(s, sorted, recs,
			func(v uint64) uint64 { return v },
			func(q uint64) uint64 { return q })
		sum := Aggregate(s, sorted,
			func(xs []uint64) int {
				t := 0
				for _, x := range xs {
					t += int(x)
				}
				return t
			},
			func(a, b int) int { return a + b })
		return result{
			mapped:  Gather(mapped),
			routed:  Gather(routed),
			byKey:   Gather(grouped),
			sorted:  Gather(sorted),
			searche: Gather(found),
			sum:     sum,
			stats:   s.Stats(),
			rounds:  s.Rounds(),
		}
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16, -1} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential execution", workers)
		}
	}
}

// Route must allocate O(machines) per round, not O(machines²): the pooled
// scratch absorbs the per-(src,dest) bucket matrix of the old shuffle.
func TestRouteAllocationsScaleWithMachines(t *testing.T) {
	const nm = 64
	s := New(Config{MachineMemory: 1 << 10, Machines: nm})
	items := make([]int, 4*nm)
	for i := range items {
		items[i] = i
	}
	d := Distribute(s, items)
	// Warm the pools so steady-state behaviour is measured.
	route := func() {
		Route(s, d, func(_ int, xs []int, send func(int, int)) {
			for _, x := range xs {
				send(x, x)
			}
		})
	}
	route()
	allocs := testing.AllocsPerRun(10, route)
	// Old implementation: ≥ nm² bucket slices ⇒ > 4096. New: shards +
	// flat buffers + bookkeeping ⇒ a small multiple of nm.
	if allocs > 8*nm {
		t.Errorf("Route allocates %.0f objects per round for %d machines; want O(machines)", allocs, nm)
	}
}

func TestSortByKeyStableTies(t *testing.T) {
	type rec struct {
		key uint64
		tag int
	}
	s := New(Config{MachineMemory: 1 << 10, Machines: 9, Workers: 4})
	items := make([]rec, 300)
	for i := range items {
		items[i] = rec{key: uint64(i % 5), tag: i}
	}
	d := Distribute(s, items)
	sorted := Gather(SortByKey(s, d, func(r rec) uint64 { return r.key }))
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.key > b.key {
			t.Fatalf("not sorted at %d", i)
		}
		if a.key == b.key && a.tag > b.tag {
			t.Fatalf("unstable tie at %d: tags %d then %d", i, a.tag, b.tag)
		}
	}
}
