package service

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/algo"
)

// testKey builds a synthetic labelingKey; i is spread across the digest
// so keys land on different shards, the way real version digests do.
func testKey(i int) labelingKey {
	var k labelingKey
	k.seed = uint64(i)
	k.digest[0] = byte(i)
	k.digest[1] = byte(i >> 8)
	k.digest[5] = byte(i * 131)
	return k
}

// TestShardedLRUEvictionProperty drives the sharded cache against a
// reference model with a randomized put/get sequence and asserts after
// every operation that the surviving entries are exactly the |capacity|
// most-recently-stamped keys. That global statement subsumes the ISSUE 5
// property — eviction never removes an entry accessed more recently than
// a surviving one within the same shard — because a violation inside any
// single shard would already break the global set equality.
func TestShardedLRUEvictionProperty(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		const capacity = 16
		c := newCache(capacity, shards)
		rng := rand.New(rand.NewPCG(42, uint64(shards)))
		model := make(map[labelingKey]int64) // key -> model stamp
		var clock int64

		keys := make([]labelingKey, 64)
		for i := range keys {
			keys[i] = testKey(i)
		}
		evictModel := func() {
			for len(model) > capacity {
				var victim labelingKey
				oldest := int64(1<<62 - 1)
				for k, s := range model {
					if s < oldest {
						oldest, victim = s, k
					}
				}
				delete(model, victim)
			}
		}
		for step := 0; step < 4000; step++ {
			k := keys[rng.IntN(len(keys))]
			clock++
			if rng.IntN(2) == 0 {
				c.put(&Labeling{key: k, Seed: k.seed})
				model[k] = clock
				evictModel()
			} else {
				l, ok := c.get(k)
				if _, want := model[k]; ok != want {
					t.Fatalf("shards=%d step %d: get(%d) hit=%v, model says %v", shards, step, k.seed, ok, want)
				}
				if ok {
					if l.key != k {
						t.Fatalf("shards=%d step %d: get returned wrong labeling (seed %d)", shards, step, l.Seed)
					}
					model[k] = clock
				}
			}
			if got := c.len(); got != len(model) {
				t.Fatalf("shards=%d step %d: cache len %d, model %d", shards, step, got, len(model))
			}
		}
		// Final audit: surviving set == model set, and per-shard occupancy
		// sums to the global count.
		for k := range model {
			if _, ok := c.get(k); !ok {
				t.Fatalf("shards=%d: model key %d missing from cache", shards, k.seed)
			}
		}
		sum := 0
		for _, occ := range c.occupancy() {
			sum += occ
		}
		if sum != c.len() {
			t.Fatalf("shards=%d: occupancy sums to %d, len is %d", shards, sum, c.len())
		}
	}
}

// TestCacheShardCount checks the power-of-two rounding and the explicit
// override.
func TestCacheShardCount(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {33, 64},
	} {
		if c := newCache(16, tc.in); len(c.shards) != tc.want {
			t.Errorf("newCache(16, %d): %d shards, want %d", tc.in, len(c.shards), tc.want)
		}
	}
	if c := newCache(16, 0); len(c.shards) == 0 || len(c.shards)&(len(c.shards)-1) != 0 {
		t.Errorf("auto shard count %d not a power of two", len(c.shards))
	}
}

// TestCacheWithDigestPrefix checks the per-version sweep the append path
// uses: only the labelings under the asked-for digest come back,
// whatever shard they hashed to.
func TestCacheWithDigestPrefix(t *testing.T) {
	c := newCache(32, 4)
	digA, digB := "aa", "bb" // two distinct (truncated) hex digests
	for i := 0; i < 6; i++ {
		k := labelingKey{digest: decodeDigest(digA), seed: uint64(i)}
		c.put(&Labeling{key: k, Seed: uint64(i)})
	}
	for i := 0; i < 3; i++ {
		k := labelingKey{digest: decodeDigest(digB), seed: uint64(i)}
		c.put(&Labeling{key: k, Seed: uint64(i)})
	}
	if got := len(c.withDigestPrefix(digA)); got != 6 {
		t.Errorf("withDigestPrefix(A) = %d labelings, want 6", got)
	}
	if got := len(c.withDigestPrefix(digB)); got != 3 {
		t.Errorf("withDigestPrefix(B) = %d labelings, want 3", got)
	}
	if got := len(c.withDigestPrefix("cc")); got != 0 {
		t.Errorf("withDigestPrefix(unknown) = %d labelings, want 0", got)
	}
}

// TestSharedLabelingExactlyOutsideReads: two solve specs share one
// labeling — the second runs no solve — exactly when they differ only
// in options outside algo.ReadsOf of their algorithm (Workers always is
// one). Every registered algorithm is checked against every option,
// and the served labeling echoes only the options the algorithm reads.
func TestSharedLabelingExactlyOutsideReads(t *testing.T) {
	base := SolveSpec{Seed: 3, Lambda: 0.3, Memory: 6, Workers: 1}
	variants := []struct {
		field string
		bit   algo.Reads
		apply func(*SolveSpec)
	}{
		{"workers", 0, func(s *SolveSpec) { s.Workers = 2 }},
		{"seed", algo.ReadsSeed, func(s *SolveSpec) { s.Seed = 11 }},
		{"lambda", algo.ReadsLambda, func(s *SolveSpec) { s.Lambda = 0.25 }},
		{"memory", algo.ReadsMemory, func(s *SolveSpec) { s.Memory = 5 }},
	}
	for _, name := range realAlgos() {
		s := newTestService(t)
		sg, err := s.Load("g", strings.NewReader(twoComponents))
		if err != nil {
			t.Fatal(err)
		}
		reads := algo.ReadsOf(name)
		spec := base
		spec.GraphID, spec.Algo = sg.ID, name
		l, err := s.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := reads.Canonical(algo.Options{Seed: spec.Seed, Lambda: spec.Lambda, Memory: spec.Memory})
		if l.Seed != want.Seed || l.Lambda != want.Lambda || l.Memory != want.Memory {
			t.Fatalf("%s: labeling echoes seed=%d lambda=%g memory=%d, want %+v", name, l.Seed, l.Lambda, l.Memory, want)
		}
		for _, vr := range variants {
			v := spec
			vr.apply(&v)
			before := s.Counters().Solves
			if _, err := s.Solve(v); err != nil {
				t.Fatal(err)
			}
			ran := s.Counters().Solves - before
			if read := reads&vr.bit != 0; read != (ran == 1) || ran > 1 {
				t.Fatalf("%s: changing %s ran %d solves; %s reads it: %v", name, vr.field, ran, name, read)
			}
		}
	}
}
