package mpc

import (
	"errors"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestLogBase(t *testing.T) {
	tests := []struct {
		n, base, want int
	}{
		{1, 2, 1},
		{2, 2, 1},
		{3, 2, 2},
		{8, 2, 3},
		{9, 2, 4},
		{1000, 10, 3},
		{1001, 10, 4},
		{100, 100, 1},
		{101, 100, 2},
		{5, 1, 3}, // base clamped to 2
		{1 << 30, 2, 30},
	}
	for _, tt := range tests {
		if got := LogBase(tt.n, tt.base); got != tt.want {
			t.Errorf("LogBase(%d,%d) = %d, want %d", tt.n, tt.base, got, tt.want)
		}
	}
}

func TestAutoConfig(t *testing.T) {
	cfg := AutoConfig(10000, 0.5, 1)
	if cfg.MachineMemory < 100 || cfg.MachineMemory > 110 {
		t.Errorf("MachineMemory = %d, want ≈100", cfg.MachineMemory)
	}
	if cfg.Machines*cfg.MachineMemory < 10000 {
		t.Errorf("cluster capacity %d < input", cfg.Machines*cfg.MachineMemory)
	}
	// Degenerate inputs clamp instead of failing.
	cfg = AutoConfig(0, -1, 0)
	if cfg.MachineMemory < 1 || cfg.Machines < 1 {
		t.Errorf("degenerate AutoConfig = %+v", cfg)
	}
}

func TestDistributeBalanced(t *testing.T) {
	s := New(Config{MachineMemory: 10, Machines: 10})
	items := make([]int, 95)
	for i := range items {
		items[i] = i
	}
	d := Distribute(s, items)
	if d.Len() != 95 {
		t.Fatalf("Len = %d", d.Len())
	}
	if s.Err() != nil {
		t.Fatalf("unexpected violation: %v", s.Err())
	}
	if s.Stats().MaxMachineLoad != 10 {
		t.Errorf("MaxMachineLoad = %d, want 10", s.Stats().MaxMachineLoad)
	}
	if s.Rounds() != 0 {
		t.Errorf("Distribute should charge 0 rounds, got %d", s.Rounds())
	}
}

func TestDistributeOverload(t *testing.T) {
	s := New(Config{MachineMemory: 2, Machines: 2})
	Distribute(s, make([]int, 10))
	var me *MemoryError
	if !errors.As(s.Err(), &me) {
		t.Fatalf("want MemoryError, got %v", s.Err())
	}
	if me.Limit != 2 {
		t.Errorf("Limit = %d", me.Limit)
	}
}

func TestMapIsFree(t *testing.T) {
	s := New(Config{MachineMemory: 100, Machines: 4})
	d := Distribute(s, []int{1, 2, 3, 4, 5, 6, 7, 8})
	doubled := Map(s, d, func(_ int, items []int) []int {
		out := make([]int, len(items))
		for i, v := range items {
			out[i] = 2 * v
		}
		return out
	})
	if s.Rounds() != 0 {
		t.Errorf("Map charged %d rounds", s.Rounds())
	}
	got := Gather(doubled)
	sort.Ints(got)
	want := []int{2, 4, 6, 8, 10, 12, 14, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestRouteDeliversAndCharges(t *testing.T) {
	s := New(Config{MachineMemory: 100, Machines: 5})
	d := Distribute(s, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// Send every record to machine (value % 5).
	routed := Route(s, d, func(_ int, items []int, send func(int, int)) {
		for _, v := range items {
			send(v%5, v)
		}
	})
	if s.Rounds() != 1 {
		t.Errorf("Route charged %d rounds, want 1", s.Rounds())
	}
	for m := 0; m < 5; m++ {
		for _, v := range routed.Shard(m) {
			if v%5 != m {
				t.Errorf("record %d landed on machine %d", v, m)
			}
		}
	}
	if s.Stats().TotalMessages != 10 {
		t.Errorf("TotalMessages = %d, want 10", s.Stats().TotalMessages)
	}
}

func TestRouteReceiveOverload(t *testing.T) {
	s := New(Config{MachineMemory: 4, Machines: 4})
	d := Distribute(s, make([]int, 16))
	// Funnel everything to machine 0: receive overload.
	Route(s, d, func(_ int, items []int, send func(int, int)) {
		for _, v := range items {
			send(0, v)
		}
	})
	var me *MemoryError
	if !errors.As(s.Err(), &me) {
		t.Fatalf("want MemoryError, got %v", s.Err())
	}
	if me.Machine != 0 || me.Load != 16 {
		t.Errorf("violation = %+v", me)
	}
}

func TestRouteSendOverload(t *testing.T) {
	s := New(Config{MachineMemory: 4, Machines: 4})
	d := Distribute(s, []int{7}) // a single record on machine 0
	// One machine tries to emit 20 messages: send overload even though
	// each receiver stays within memory.
	Route(s, d, func(_ int, items []int, send func(int, int)) {
		for range items {
			for i := 0; i < 20; i++ {
				send(i%4, i)
			}
		}
	})
	var me *MemoryError
	if !errors.As(s.Err(), &me) {
		t.Fatalf("want send-side MemoryError, got %v", s.Err())
	}
}

func TestRouteWrapsBadDestination(t *testing.T) {
	s := New(Config{MachineMemory: 10, Machines: 3})
	d := Distribute(s, []int{1})
	out := Route(s, d, func(_ int, items []int, send func(int, int)) {
		for _, v := range items {
			send(-1, v) // wraps to a valid machine
		}
	})
	if out.Len() != 1 {
		t.Errorf("lost record on bad destination")
	}
}

func TestByKeyGroups(t *testing.T) {
	s := New(Config{MachineMemory: 100, Machines: 7})
	items := make([]int, 200)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range items {
		items[i] = rng.IntN(20)
	}
	d := Distribute(s, items)
	grouped := ByKey(s, d, func(v int) uint64 { return uint64(v) })
	if s.Err() != nil {
		t.Fatalf("violation: %v", s.Err())
	}
	// Same key must land on exactly one machine.
	where := map[int]int{}
	for m := 0; m < grouped.NumShards(); m++ {
		for _, v := range grouped.Shard(m) {
			if prev, ok := where[v]; ok && prev != m {
				t.Fatalf("key %d on machines %d and %d", v, prev, m)
			}
			where[v] = m
		}
	}
	if grouped.Len() != 200 {
		t.Errorf("lost records: %d", grouped.Len())
	}
}

func TestSortByKey(t *testing.T) {
	s := New(Config{MachineMemory: 16, Machines: 64})
	items := make([]uint64, 1000)
	rng := rand.New(rand.NewPCG(2, 3))
	for i := range items {
		items[i] = uint64(rng.IntN(1 << 20))
	}
	d := Distribute(s, items)
	sorted := SortByKey(s, d, func(v uint64) uint64 { return v })
	got := Gather(sorted)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("output not globally sorted")
	}
	wantRounds := LogBase(1000, 16) // = 3
	if s.Rounds() != wantRounds {
		t.Errorf("sort charged %d rounds, want %d", s.Rounds(), wantRounds)
	}
}

func TestParallelSearch(t *testing.T) {
	s := New(Config{MachineMemory: 50, Machines: 4})
	type rec struct {
		k uint64
		v string
	}
	records := Distribute(s, []rec{{1, "a"}, {2, "b"}, {5, "e"}})
	queries := Distribute(s, []uint64{2, 5, 9})
	res := ParallelSearch(s, records, queries,
		func(r rec) uint64 { return r.k },
		func(q uint64) uint64 { return q })
	byQuery := map[uint64]Pair[uint64, rec]{}
	for _, p := range Gather(res) {
		byQuery[p.Query] = p
	}
	if p := byQuery[2]; !p.Found || p.Match.v != "b" {
		t.Errorf("query 2: %+v", p)
	}
	if p := byQuery[5]; !p.Found || p.Match.v != "e" {
		t.Errorf("query 5: %+v", p)
	}
	if p := byQuery[9]; p.Found {
		t.Errorf("query 9 should miss: %+v", p)
	}
	if s.Rounds() < 1 {
		t.Error("search must charge at least one round")
	}
}

// Property: Route conserves records for arbitrary destinations.
func TestRouteConservesQuick(t *testing.T) {
	f := func(vals []int16, machines uint8) bool {
		nm := int(machines%8) + 1
		s := New(Config{MachineMemory: len(vals) + 1, Machines: nm})
		items := make([]int, len(vals))
		for i, v := range vals {
			items[i] = int(v)
		}
		d := Distribute(s, items)
		out := Route(s, d, func(_ int, its []int, send func(int, int)) {
			for _, v := range its {
				send(v, v) // arbitrary, wrapped internally
			}
		})
		return out.Len() == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The parallel executor must produce identical results to the sequential
// one (byte-for-byte determinism given the same seed).
func TestParallelDeterminism(t *testing.T) {
	run := func(workers int) []int {
		s := New(Config{MachineMemory: 1000, Machines: 16, Workers: workers})
		items := make([]int, 500)
		for i := range items {
			items[i] = i
		}
		d := Distribute(s, items)
		shuffled := ByKey(s, d, func(v int) uint64 { return uint64(v * 7) })
		sorted := SortByKey(s, shuffled, func(v int) uint64 { return uint64(v) })
		return Gather(sorted)
	}
	a, b := run(1), run(-1)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestChargeHelpers(t *testing.T) {
	s := New(Config{MachineMemory: 10, Machines: 100})
	s.ChargeSort(1000) // log_10(1000) = 3
	if s.Rounds() != 3 {
		t.Errorf("ChargeSort: %d rounds, want 3", s.Rounds())
	}
	s.ChargeBroadcast() // log_10(100) = 2
	if s.Rounds() != 5 {
		t.Errorf("after broadcast: %d rounds, want 5", s.Rounds())
	}
	s.Charge(-3, "negative is ignored")
	if s.Rounds() != 5 {
		t.Errorf("negative charge changed rounds: %d", s.Rounds())
	}
}

func TestAggregate(t *testing.T) {
	s := New(Config{MachineMemory: 10, Machines: 100})
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	d := Distribute(s, items)
	before := s.Rounds()
	sum := Aggregate(s, d,
		func(xs []int) int {
			t := 0
			for _, x := range xs {
				t += x
			}
			return t
		},
		func(a, b int) int { return a + b })
	if want := 499 * 500 / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if got := s.Rounds() - before; got != LogBase(100, 10) {
		t.Errorf("Aggregate charged %d rounds, want %d", got, LogBase(100, 10))
	}
}

func TestBroadcast(t *testing.T) {
	s := New(Config{MachineMemory: 4, Machines: 9})
	out := Broadcast(s, "seed")
	if out.Len() != 9 {
		t.Fatalf("broadcast reached %d machines", out.Len())
	}
	for m := 0; m < out.NumShards(); m++ {
		if len(out.Shard(m)) != 1 || out.Shard(m)[0] != "seed" {
			t.Fatalf("machine %d got %v", m, out.Shard(m))
		}
	}
	if s.Rounds() != LogBase(9, 4) {
		t.Errorf("Broadcast charged %d rounds", s.Rounds())
	}
}

func TestAbsorbLoad(t *testing.T) {
	parent := New(Config{MachineMemory: 8, Machines: 4})
	child := New(Config{MachineMemory: 8, Machines: 4})
	Distribute(child, make([]int, 20)) // load 5 per machine, 3 rounds? no rounds
	childRounds := child.Rounds()
	parent.AbsorbLoad(child)
	if parent.Rounds() != 0 {
		t.Errorf("AbsorbLoad advanced rounds by %d", parent.Rounds())
	}
	if parent.Stats().MaxMachineLoad != child.Stats().MaxMachineLoad {
		t.Error("load not absorbed")
	}
	_ = childRounds
	// Violations propagate too.
	bad := New(Config{MachineMemory: 1, Machines: 1})
	Distribute(bad, make([]int, 5))
	parent.AbsorbLoad(bad)
	if parent.Err() == nil {
		t.Error("child violation not propagated")
	}
}

func TestMergeParallel(t *testing.T) {
	parent := New(Config{MachineMemory: 8, Machines: 4})
	a, b := parent.Fork(), parent.Fork()
	a.Charge(3, "x")
	b.Charge(5, "y")
	parent.MergeParallel(a, b)
	if parent.Rounds() != 5 {
		t.Errorf("MergeParallel rounds = %d, want max=5", parent.Rounds())
	}
}

func TestNewClampsConfig(t *testing.T) {
	s := New(Config{MachineMemory: 0, Machines: -2})
	if s.Config().MachineMemory != 1 || s.Config().Machines != 1 {
		t.Errorf("config not clamped: %+v", s.Config())
	}
}
