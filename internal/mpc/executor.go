package mpc

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor runs the simulator's data-parallel loops: machine-local work
// inside Map/Route/SortByKey, and the instance/batch fan-outs of the
// Theorem 3 repetitions. Implementations must invoke fn exactly once per
// index; callers are responsible for making the per-index work write to
// disjoint state, so results are identical under any schedule.
type Executor interface {
	// Workers returns the maximum number of indices that may execute
	// concurrently (1 for the sequential executor).
	Workers() int
	// Run invokes fn(i) for every i in [0, n), possibly concurrently, and
	// returns once all invocations have finished.
	Run(n int, fn func(i int))
}

// Sequential is the zero-concurrency Executor: Run is a plain loop. It is
// the reference implementation the worker pool must be bit-identical to.
var Sequential Executor = sequential{}

type sequential struct{}

func (sequential) Workers() int { return 1 }

func (sequential) Run(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// The process-wide concurrency budget shared by every pool executor:
// GOMAXPROCS-1 extra workers beyond the calling goroutine. Nested Run
// calls (a parallel batch fan-out whose instances run parallel
// machine-local loops) draw from the same budget, so the process never
// oversubscribes the CPUs no matter how deeply simulations nest: an inner
// Run that finds the budget exhausted simply executes inline on its
// caller, and picks up helpers later if tokens free up while it runs.
// Each Run reads GOMAXPROCS once on entry, so programs (and go test -cpu
// sweeps) that resize the proc limit mid-process get the current value,
// not the one cached at first use.
//
// tokensInUse may dip below zero: a Run whose caller has nothing left to
// claim lends the caller's CPU to the budget while it waits for its
// helpers (see run.wait).
var tokensInUse atomic.Int64

// tryAcquireToken takes one token if fewer than limit are in use.
func tryAcquireToken(limit int64) bool {
	for {
		cur := tokensInUse.Load()
		if cur >= limit {
			return false
		}
		if tokensInUse.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseToken() { tokensInUse.Add(-1) }

// pool is a bounded work-stealing executor. It holds no goroutines while
// idle: each Run spawns helpers only for tokens it can acquire from the
// global budget (capped at its own worker limit), and the caller always
// participates, so Run can never deadlock even when nested. A Run keeps
// recruiting after it starts: whenever a worker claims an index and
// another is still unclaimed, it tries for a token freed by some other
// loop. A caller left waiting for its helpers lends its own CPU to the
// budget, so a loop nested in a straggling index can recruit onto it.
// On a 2-vCPU host these two rules took perfbench's mpc-reference solve,
// whose three randomization batches each fan out walk blocks, from
// 142–151% to 184–185% CPU (README.md, "Executor model").
type pool struct {
	workers int
}

// NewPool returns an Executor that runs up to workers indices concurrently
// (the calling goroutine counts as one worker). workers < 1 is clamped to
// GOMAXPROCS. All pools share one global GOMAXPROCS-1 helper budget, so
// nested pools cooperate instead of multiplying goroutines: at most
// GOMAXPROCS bodies run at once under one top-level caller, at most
// workers-1 helpers are ever started per Run, and a token that any loop
// gives back — a finished helper's, or a waiting caller's lent CPU — is
// picked up by the next index claim of any loop still running.
func NewPool(workers int) Executor {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return Sequential
	}
	return &pool{workers: workers}
}

func (p *pool) Workers() int { return p.workers }

func (p *pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	// At most workers-1 helpers (the caller participates) and at most n-1
	// (never more helpers than remaining items).
	r := &run{
		fn:         fn,
		n:          n,
		limit:      int64(runtime.GOMAXPROCS(0) - 1),
		maxHelpers: int64(min(p.workers, n) - 1),
	}
	for r.recruit() {
	}
	r.work()
	r.wait()
}

// run is the state of one pool.Run call.
type run struct {
	fn         func(i int)
	n          int
	limit      int64 // the global budget, GOMAXPROCS-1 on entry
	maxHelpers int64
	next       atomic.Int64 // next unclaimed index
	recruited  atomic.Int64 // helpers started so far, ≤ maxHelpers
	wg         sync.WaitGroup

	mu   sync.Mutex
	live int  // helpers started and not yet finished
	lent bool // the caller gave its CPU to the budget while waiting
}

// work claims and runs indices until none is left. After each claim that
// leaves an index unclaimed it checks for a free token — one atomic load
// while the budget is spent — and recruits one more helper if it finds one.
func (r *run) work() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		if i+1 < r.n && tokensInUse.Load() < r.limit {
			r.recruit()
		}
		r.fn(i)
	}
}

// recruit starts one more helper if the run is below its helper cap and
// a budget token is free.
func (r *run) recruit() bool {
	for {
		h := r.recruited.Load()
		if h >= r.maxHelpers {
			return false
		}
		if r.recruited.CompareAndSwap(h, h+1) {
			break
		}
	}
	if !tryAcquireToken(r.limit) {
		r.recruited.Add(-1)
		return false
	}
	r.mu.Lock()
	r.live++
	r.mu.Unlock()
	r.wg.Add(1)
	go r.help()
	return true
}

// help is a helper goroutine's whole life: work, then give its token
// back. If the caller lent its CPU while waiting, the last helper to
// finish passes its token to the caller instead, so the caller resumes
// on a CPU the budget already counts and the budget never overshoots.
func (r *run) help() {
	r.work()
	r.mu.Lock()
	r.live--
	if r.live == 0 && r.lent {
		r.lent = false
	} else {
		releaseToken()
	}
	r.mu.Unlock()
	r.wg.Done()
}

// wait blocks the caller until every helper has finished. With nothing
// left to claim the caller would sit idle, so while helpers are still
// running it lends its CPU to the budget first: a loop nested inside a
// helper's index can then recruit onto it. The waiting caller never runs
// a body, so bodies running at once still never exceed GOMAXPROCS under
// one top-level caller.
func (r *run) wait() {
	r.mu.Lock()
	if r.live > 0 {
		r.lent = true
		releaseToken()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// RunChunks divides [0, n) into contiguous chunks and executes fn(lo, hi)
// per chunk on ex. Use it for loops whose per-index body is too cheap to
// dispatch individually (pointer-doubling sweeps, label floods): the chunk
// count is a small multiple of the worker count so scheduling overhead
// stays negligible while load still balances.
func RunChunks(ex Executor, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := ex.Workers()
	if w <= 1 || n < 2*w {
		fn(0, n)
		return
	}
	chunks := 4 * w
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	ex.Run(chunks, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// StreamRNG returns the stream-th deterministic PCG substream of the seed
// pair (seed1, seed2). Independent walk instances, randomization batches,
// and per-vertex direct walks each draw their randomness from their own
// substream, keyed by their index — so the values any instance sees depend
// only on (seed pair, index), never on which goroutine ran it or in what
// order. This is what makes the parallel executors bit-identical to
// Sequential. The splitmix64 finalizer decorrelates consecutive indices.
func StreamRNG(seed1, seed2 uint64, stream uint64) *rand.Rand {
	return rand.New(StreamPCG(seed1, seed2, stream))
}

// StreamPCG is StreamRNG without the rand.Rand wrapper: the identical
// substream, exposed as a concrete *rand.PCG so hot loops can draw
// Uint64s through a direct (devirtualized, inlinable) call instead of the
// Source interface. StreamRNG(a,b,i) and StreamPCG(a,b,i) generate the
// same underlying word sequence.
func StreamPCG(seed1, seed2 uint64, stream uint64) *rand.PCG {
	return rand.NewPCG(StreamSeeds(seed1, seed2, stream))
}

// StreamSeeds returns the initial 128-bit PCG state (hi, lo) of substream
// stream of (seed1, seed2): StreamPCG(a, b, i) is rand.NewPCG of it. Hot
// loops that keep the generator state in local variables start from it
// and draw the same words as StreamPCG.
func StreamSeeds(seed1, seed2 uint64, stream uint64) (hi, lo uint64) {
	return mix(seed1 ^ mix(stream*0x9e3779b97f4a7c15+0x6a09e667f3bcc909)),
		mix(seed2 + stream*0xd1342543de82ef95)
}
