// Package mpc simulates the Massively Parallel Computation model of
// Beame–Koutris–Suciu as used by the paper (Section 1, "Massively Parallel
// Computation Model"): a cluster of machines, each with local memory s (in
// records), computing in synchronous rounds. During a round each machine
// runs arbitrary local computation; between rounds machines exchange
// messages, but no machine may send or receive more than its memory.
//
// The simulator executes algorithms in-process — per the reproduction plan,
// rounds are simulated manually rather than through a MapReduce framework —
// while preserving exactly the quantities the paper's theorems are about:
//
//   - the number of rounds (every communication primitive charges its
//     documented round cost, e.g. sort costs ceil(log_s N) rounds as in
//     Goodrich–Sitchinava–Zhang, Section 2 of the paper);
//   - the per-machine memory bound (a shuffle that would overload any
//     machine records a violation, surfaced via Sim.Err);
//   - total communication volume.
//
// Algorithms express data as Sharded[T] collections and move it with Map
// (local work, zero rounds), Route/ByKey (one shuffle round), SortByKey and
// ParallelSearch (the classic O(log_s N)-round primitives).
//
// Machine-local work runs on a pluggable Executor (Config.Workers): the
// sequential executor or a bounded worker pool that shares one global
// GOMAXPROCS budget across nested simulations. A pool loop keeps
// recruiting helpers after it starts, whenever another loop frees a
// token, and a caller waiting on its helpers lends its CPU to the budget,
// so a nested loop in a straggling instance can use it. Every parallel
// loop writes disjoint state and merges in index order, and all
// per-instance randomness comes from StreamRNG substreams keyed by
// instance index, so results are bit-identical across executors and
// schedules. See README.md in this directory for the executor model and
// the seed-derivation scheme.
package mpc

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Config describes the simulated cluster.
type Config struct {
	// MachineMemory is s: the maximum number of records a machine may hold,
	// send, or receive in a round.
	MachineMemory int
	// Machines is the number of machines.
	Machines int
	// Workers selects the execution engine for machine-local work and
	// instance fan-outs: 0 or 1 is the sequential executor, k > 1 a bounded pool of k workers, and any negative value a
	// GOMAXPROCS-wide pool. All pools share one global GOMAXPROCS-1 helper
	// budget, so nested simulations never oversubscribe the CPUs; a loop
	// picks up tokens that free up while it runs, and a caller waiting on
	// its helpers lends its CPU, so a nested loop can use a CPU that an
	// outer fan-out leaves idle. Results are bit-identical across
	// executors.
	Workers int
	// Executor, when non-nil, overrides Workers with a custom executor.
	// Fork children inherit it.
	Executor Executor
}

// executor resolves the Config knobs to a concrete Executor.
func (cfg Config) executor() Executor {
	if cfg.Executor != nil {
		return cfg.Executor
	}
	if cfg.Workers == 0 || cfg.Workers == 1 {
		return Sequential
	}
	return NewPool(cfg.Workers)
}

// AutoConfig returns a cluster sized for an input of totalRecords records
// with per-machine memory Θ(totalRecords^delta), mirroring the paper's
// "s = n^δ memory, O(n^{1-δ}) machines" parameterization. The slack factor
// headroom (≥ 1) multiplies the machine count, matching the polylog(n)
// machine slack in Theorem 1.
func AutoConfig(totalRecords int, delta float64, headroom float64) Config {
	if totalRecords < 1 {
		totalRecords = 1
	}
	if delta <= 0 || delta > 1 {
		delta = 0.5
	}
	if headroom < 1 {
		headroom = 1
	}
	s := int(math.Ceil(math.Pow(float64(totalRecords), delta)))
	if s < 4 {
		s = 4
	}
	machines := int(math.Ceil(headroom * float64(totalRecords) / float64(s)))
	if machines < 1 {
		machines = 1
	}
	return Config{MachineMemory: s, Machines: machines}
}

// MemoryError reports a violation of the per-machine memory bound. It is
// recorded sticky on the Sim; subsequent operations still execute so the
// algorithm completes, but Err returns the first violation.
type MemoryError struct {
	Op      string
	Machine int
	Load    int
	Limit   int
}

func (e *MemoryError) Error() string {
	return fmt.Sprintf("mpc: %s overloads machine %d: %d records > memory %d",
		e.Op, e.Machine, e.Load, e.Limit)
}

// Stats is a snapshot of the simulator's accounting.
type Stats struct {
	// Rounds is the number of MPC rounds charged so far.
	Rounds int
	// MaxMachineLoad is the largest number of records any machine held
	// after any communication step.
	MaxMachineLoad int
	// TotalMessages is the total number of records shuffled.
	TotalMessages int64
}

// Sim is one MPC execution: a cluster configuration plus round, load, and
// communication accounting. Create with New; not safe for concurrent use by
// multiple algorithm goroutines (machine-local parallelism is internal).
type Sim struct {
	cfg   Config
	exec  Executor
	stats Stats
	err   error
}

// New returns a Sim for the given cluster. Invalid fields are clamped to
// minimal sane values.
func New(cfg Config) *Sim {
	if cfg.MachineMemory < 1 {
		cfg.MachineMemory = 1
	}
	if cfg.Machines < 1 {
		cfg.Machines = 1
	}
	return &Sim{cfg: cfg, exec: cfg.executor()}
}

// Config returns the cluster configuration.
func (s *Sim) Config() Config { return s.cfg }

// Executor returns the execution engine the Sim's primitives run on.
// Algorithm code uses it to parallelize its own independent fan-outs
// (Theorem 3 instances, randomization batches) on the same shared budget.
func (s *Sim) Executor() Executor { return s.exec }

// Stats returns the current accounting snapshot.
func (s *Sim) Stats() Stats { return s.stats }

// Rounds returns the number of rounds charged so far.
func (s *Sim) Rounds() int { return s.stats.Rounds }

// Err returns the first memory violation recorded, if any.
func (s *Sim) Err() error { return s.err }

// Charge adds k rounds of cost. Primitives whose data movement is simulated
// logically (rather than record-by-record) use Charge to keep the round
// accounting faithful; op labels the primitive for debugging.
func (s *Sim) Charge(k int, op string) {
	_ = op
	if k > 0 {
		s.stats.Rounds += k
	}
	// Use the operation label in future tracing; intentionally unused now.
}

// SortRounds is the round cost of the Goodrich et al. sort/search primitive
// on N records with memory s: ceil(log_s N), minimum 1.
func (s *Sim) SortRounds(n int) int {
	return LogBase(n, s.cfg.MachineMemory)
}

// ChargeSort charges the cost of sorting n records.
func (s *Sim) ChargeSort(n int) { s.Charge(s.SortRounds(n), "sort") }

// ChargeSearch charges the cost of a parallel search over n records (same
// cost as sort in the Goodrich et al. construction).
func (s *Sim) ChargeSearch(n int) { s.Charge(s.SortRounds(n), "search") }

// ChargeBroadcast charges the cost of an aggregation/broadcast tree over
// the machines (fan-in s), ceil(log_s machines), minimum 1.
func (s *Sim) ChargeBroadcast() {
	s.Charge(LogBase(s.cfg.Machines, s.cfg.MachineMemory), "broadcast")
}

func (s *Sim) recordViolation(op string, machine, load int) {
	if s.err == nil {
		s.err = &MemoryError{Op: op, Machine: machine, Load: load, Limit: s.cfg.MachineMemory}
	}
}

func (s *Sim) observeLoad(op string, loads []int) {
	for m, l := range loads {
		if l > s.stats.MaxMachineLoad {
			s.stats.MaxMachineLoad = l
		}
		if l > s.cfg.MachineMemory {
			s.recordViolation(op, m, l)
		}
	}
}

// Fork returns a child Sim with the same cluster configuration and fresh
// accounting, for work that runs concurrently with other forks on disjoint
// machine groups. The child shares the parent's executor (and thus the
// global worker budget). Combine the children back with MergeParallel.
func (s *Sim) Fork() *Sim {
	child := New(s.cfg)
	child.exec = s.exec
	return child
}

// MergeParallel folds the accounting of children that executed in parallel
// on disjoint machine groups: rounds advance by the slowest child (the
// synchronous-round semantics of the model), loads take the max, messages
// and errors accumulate.
func (s *Sim) MergeParallel(children ...*Sim) {
	maxRounds := 0
	for _, c := range children {
		if c.stats.Rounds > maxRounds {
			maxRounds = c.stats.Rounds
		}
		if c.stats.MaxMachineLoad > s.stats.MaxMachineLoad {
			s.stats.MaxMachineLoad = c.stats.MaxMachineLoad
		}
		s.stats.TotalMessages += c.stats.TotalMessages
		if s.err == nil && c.err != nil {
			s.err = c.err
		}
	}
	s.stats.Rounds += maxRounds
}

// AbsorbLoad folds a child's machine loads, traffic, and memory violations
// into s without advancing rounds — for children whose round cost the
// caller charges separately in aggregate (e.g. overlapping sorts of
// independent blocks).
func (s *Sim) AbsorbLoad(children ...*Sim) {
	for _, c := range children {
		if c.stats.MaxMachineLoad > s.stats.MaxMachineLoad {
			s.stats.MaxMachineLoad = c.stats.MaxMachineLoad
		}
		s.stats.TotalMessages += c.stats.TotalMessages
		if s.err == nil && c.err != nil {
			s.err = c.err
		}
	}
}

// LogBase returns ceil(log_base(n)) clamped to at least 1; base is clamped
// to at least 2. It is the ubiquitous round cost ceil(log_s N).
func LogBase(n, base int) int {
	if base < 2 {
		base = 2
	}
	if n <= base {
		return 1
	}
	r := 0
	v := 1
	for v < n {
		// Guard overflow: once v > n/base, one more multiply suffices.
		if v > n/base {
			return r + 1
		}
		v *= base
		r++
	}
	return r
}

// Sharded is a collection of records distributed across the machines of a
// Sim. shard i lives on machine i.
type Sharded[T any] struct {
	shards [][]T
}

// NumShards returns the number of machines the collection spans.
func (d *Sharded[T]) NumShards() int { return len(d.shards) }

// Shard returns machine m's records (shared slice; callers must not grow).
func (d *Sharded[T]) Shard(m int) []T { return d.shards[m] }

// Len returns the total number of records.
func (d *Sharded[T]) Len() int {
	total := 0
	for _, sh := range d.shards {
		total += len(sh)
	}
	return total
}

// loads returns per-machine record counts.
func (d *Sharded[T]) loads() []int {
	out := make([]int, len(d.shards))
	for i, sh := range d.shards {
		out[i] = len(sh)
	}
	return out
}

// Distribute places items on the cluster round-robin in contiguous blocks,
// the adversarial-but-balanced initial placement of the model. It charges
// no rounds (input placement) but does enforce that the input fits:
// ceil(len/machines) must be at most the machine memory.
func Distribute[T any](s *Sim, items []T) *Sharded[T] {
	m := s.cfg.Machines
	shards := make([][]T, m)
	per := (len(items) + m - 1) / m
	if per == 0 {
		per = 1
	}
	for i := 0; i < m; i++ {
		lo := i * per
		if lo > len(items) {
			lo = len(items)
		}
		hi := lo + per
		if hi > len(items) {
			hi = len(items)
		}
		shards[i] = items[lo:hi:hi]
	}
	d := &Sharded[T]{shards: shards}
	s.observeLoad("distribute", d.loads())
	return d
}

// parallelOver runs fn(machine) over all machines on the Sim's executor.
func (s *Sim) parallelOver(n int, fn func(m int)) {
	s.exec.Run(n, fn)
}

// Map applies a machine-local function to every shard. It is free (no
// communication round) but output shards must respect machine memory.
func Map[T, U any](s *Sim, in *Sharded[T], f func(machine int, items []T) []U) *Sharded[U] {
	out := &Sharded[U]{shards: make([][]U, len(in.shards))}
	s.parallelOver(len(in.shards), func(m int) {
		out.shards[m] = f(m, in.shards[m])
	})
	s.observeLoad("map", out.loads())
	return out
}

// routeScratch is the pooled per-source shuffle state: a flat list of
// destinations in emission order plus per-destination counts. Message
// payloads are generic and therefore kept in a separate per-call buffer;
// everything type-independent is recycled through routePool, so a Route
// round costs O(machines) allocations instead of the O(machines²) of a
// per-(src,dest) outbox matrix.
type routeScratch struct {
	dests  []int32
	counts []int32
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func getRouteScratch(nm int) *routeScratch {
	rs := routePool.Get().(*routeScratch)
	if cap(rs.counts) < nm {
		rs.counts = make([]int32, nm)
	} else {
		rs.counts = rs.counts[:nm]
		clear(rs.counts)
	}
	rs.dests = rs.dests[:0]
	return rs
}

// offsetsPool recycles the O(machines²) int32 offset table (one allocation
// per round, reused across rounds and sims).
var offsetsPool = sync.Pool{New: func() any { return new([]int32) }}

func getI32(n int) *[]int32 {
	p := offsetsPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

// Route is one communication round: each machine scans its records and
// emits messages addressed to explicit destination machines. Both the sent
// and received volume per machine are bounded by machine memory.
//
// The shuffle is allocation-lean: each source machine appends to one flat
// message buffer while counting per-destination volume in pooled scratch;
// receiver shards are then allocated at exact size and filled by a
// parallel scatter through a pooled offset table. Messages arrive ordered
// by (source machine, emission order) — the same order as a per-pair
// outbox — so results are independent of the executor.
func Route[T, U any](s *Sim, in *Sharded[T], emit func(machine int, items []T, send func(dest int, msg U))) *Sharded[U] {
	nm := len(in.shards)
	scratch := make([]*routeScratch, nm)
	msgs := make([][]U, nm)
	sent := make([]int, nm)
	s.parallelOver(nm, func(m int) {
		rs := getRouteScratch(nm)
		// Most emitters send O(1) messages per input record; seeding the
		// flat buffer at the shard size makes the append loop one
		// allocation in the common case.
		buf := make([]U, 0, len(in.shards[m]))
		emit(m, in.shards[m], func(dest int, msg U) {
			if dest < 0 || dest >= nm {
				dest = ((dest % nm) + nm) % nm
			}
			rs.dests = append(rs.dests, int32(dest))
			rs.counts[dest]++
			buf = append(buf, msg)
		})
		scratch[m] = rs
		msgs[m] = buf
		sent[m] = len(buf)
	})
	s.observeLoad("route:send", sent)
	// off[src*nm+dest] = where src's first message to dest lands within
	// dest's shard: a column-wise exclusive prefix sum of the counts.
	offP, totalsP := getI32(nm*nm), getI32(nm)
	off, totals := *offP, *totalsP
	clear(totals)
	for src := 0; src < nm; src++ {
		row := scratch[src].counts
		base := src * nm
		for dest := 0; dest < nm; dest++ {
			off[base+dest] = totals[dest]
			totals[dest] += row[dest]
		}
	}
	out := &Sharded[U]{shards: make([][]U, nm)}
	recv := make([]int, nm)
	for dest := 0; dest < nm; dest++ {
		out.shards[dest] = make([]U, totals[dest])
		recv[dest] = int(totals[dest])
	}
	// Scatter: sources write disjoint index ranges of each receiver shard,
	// so they can run concurrently; the offset row doubles as the cursor.
	// Every message of the round funnels through this loop, so it must
	// stay pure index arithmetic — all buffers were sized above.
	//wcc:hotpath
	s.parallelOver(nm, func(src int) {
		rs := scratch[src]
		base := src * nm
		buf := msgs[src]
		for i, d := range rs.dests {
			out.shards[d][off[base+int(d)]] = buf[i]
			off[base+int(d)]++
		}
	})
	s.observeLoad("route:recv", recv)
	for _, c := range sent {
		s.stats.TotalMessages += int64(c)
	}
	offsetsPool.Put(offP)
	offsetsPool.Put(totalsP)
	for _, rs := range scratch {
		routePool.Put(rs)
	}
	s.Charge(1, "route")
	return out
}

// ByKey shuffles records so that all records with the same key land on the
// same machine (hash partitioning). One round.
func ByKey[T any](s *Sim, in *Sharded[T], key func(T) uint64) *Sharded[T] {
	nm := len(in.shards)
	return Route(s, in, func(_ int, items []T, send func(int, T)) {
		for _, it := range items {
			send(int(mix(key(it))%uint64(nm)), it)
		}
	})
}

// SortByKey globally sorts the collection by key and returns it range-
// partitioned across machines in key order (machine 0 holds the smallest
// keys). It charges ceil(log_s N) rounds, the cost of the Goodrich et al.
// MPC sort; the data movement itself is simulated on the host.
//
// The host simulation mirrors the model's structure: every machine sorts
// its shard locally (in parallel on the executor), then the sorted runs
// are merged by a binary min-heap over run heads that breaks key ties by
// shard index. That tie-break makes the merge equivalent to a stable sort
// of the shard concatenation, so output is bit-identical to the
// sequential path regardless of executor.
func SortByKey[T any](s *Sim, in *Sharded[T], key func(T) uint64) *Sharded[T] {
	n := in.Len()
	nm := len(in.shards)
	all := make([]T, n)
	bounds := make([]int, nm+1)
	for m, sh := range in.shards {
		bounds[m+1] = bounds[m] + len(sh)
	}
	s.parallelOver(nm, func(m int) {
		seg := all[bounds[m]:bounds[m+1]]
		copy(seg, in.shards[m])
		sort.SliceStable(seg, func(i, j int) bool { return key(seg[i]) < key(seg[j]) })
	})
	merged := mergeRuns(all, bounds, key)
	s.ChargeSort(n)
	s.stats.TotalMessages += int64(n)
	// Range partition: equal-size blocks in key order.
	return Distribute(s, merged)
}

// mergeRuns merges the sorted segments all[bounds[m]:bounds[m+1]] into a
// fresh slice using a binary min-heap over segment heads; equal keys pop
// from the lowest segment first (stability across segments).
func mergeRuns[T any](all []T, bounds []int, key func(T) uint64) []T {
	nm := len(bounds) - 1
	if nm == 1 {
		return all
	}
	type head struct {
		key uint64
		seg int32
	}
	heap := make([]head, 0, nm)
	pos := make([]int, nm)
	less := func(a, b head) bool {
		return a.key < b.key || (a.key == b.key && a.seg < b.seg)
	}
	push := func(h head) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			sm := i
			if l < len(heap) && less(heap[l], heap[sm]) {
				sm = l
			}
			if r < len(heap) && less(heap[r], heap[sm]) {
				sm = r
			}
			if sm == i {
				return
			}
			heap[i], heap[sm] = heap[sm], heap[i]
			i = sm
		}
	}
	for m := 0; m < nm; m++ {
		pos[m] = bounds[m]
		if pos[m] < bounds[m+1] {
			push(head{key: key(all[pos[m]]), seg: int32(m)})
		}
	}
	out := make([]T, 0, len(all))
	for len(heap) > 0 {
		h := heap[0]
		m := int(h.seg)
		out = append(out, all[pos[m]])
		pos[m]++
		if pos[m] < bounds[m+1] {
			heap[0] = head{key: key(all[pos[m]]), seg: h.seg}
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown()
	}
	return out
}

// Pair carries a query joined with the matching record, the output of
// ParallelSearch.
type Pair[Q, A any] struct {
	Query Q
	Match A
	Found bool
}

// ParallelSearch implements the search primitive of Section 2: given a set
// of key-value records and a set of queries each holding a key, annotate
// every query with the matching record. Cost: O(log_s N) rounds, charged as
// one sort of the combined input. Records with duplicate keys resolve to an
// arbitrary one of them.
func ParallelSearch[A, Q any](s *Sim, records *Sharded[A], queries *Sharded[Q], recKey func(A) uint64, qKey func(Q) uint64) *Sharded[Pair[Q, A]] {
	n := records.Len() + queries.Len()
	index := make(map[uint64]A, records.Len())
	for _, sh := range records.shards {
		for _, r := range sh {
			index[recKey(r)] = r
		}
	}
	out := Map(s, queries, func(_ int, qs []Q) []Pair[Q, A] {
		res := make([]Pair[Q, A], len(qs))
		for i, q := range qs {
			a, ok := index[qKey(q)]
			res[i] = Pair[Q, A]{Query: q, Match: a, Found: ok}
		}
		return res
	})
	s.ChargeSearch(n)
	s.stats.TotalMessages += int64(queries.Len())
	return out
}

// Aggregate folds every machine's shard to a single value via a fan-in-s
// aggregation tree and returns the global combination of all per-machine
// results. local reduces one shard; combine must be associative and
// commutative (tree order is unspecified). Charges ceil(log_s machines)
// rounds, the standard converge-cast cost.
func Aggregate[T, A any](s *Sim, in *Sharded[T], local func(items []T) A, combine func(a, b A) A) A {
	partials := make([]A, len(in.shards))
	s.parallelOver(len(in.shards), func(m int) {
		partials[m] = local(in.shards[m])
	})
	s.ChargeBroadcast()
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combine(acc, p)
	}
	return acc
}

// Broadcast delivers one value to every machine and returns the per-
// machine copies as a Sharded collection of singletons. Charges
// ceil(log_s machines) rounds (a broadcast tree, the reverse of
// Aggregate).
func Broadcast[T any](s *Sim, value T) *Sharded[T] {
	shards := make([][]T, s.cfg.Machines)
	for m := range shards {
		shards[m] = []T{value}
	}
	s.ChargeBroadcast()
	s.stats.TotalMessages += int64(s.cfg.Machines)
	out := &Sharded[T]{shards: shards}
	s.observeLoad("broadcast", out.loads())
	return out
}

// Gather collects the whole collection to the host (the simulation
// coordinator) in shard order. This is extraction of the final output, not
// an MPC communication step: it charges no rounds and is exempt from the
// memory bound, mirroring how results leave a real cluster.
func Gather[T any](in *Sharded[T]) []T {
	out := make([]T, 0, in.Len())
	for _, sh := range in.shards {
		out = append(out, sh...)
	}
	return out
}

// mix is a 64-bit finalizer (splitmix64) so that adversarial keys still
// spread across machines.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
