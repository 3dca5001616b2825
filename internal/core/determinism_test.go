package core

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/randomize"
)

func init() {
	// Give the worker pool a non-empty helper budget even on single-core
	// CI machines, so the parallel paths below really interleave.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// FindComponents must be bit-identical across executors for a fixed seed:
// the full pipeline (regularize → randomize batches → grow → finish) only
// draws randomness through per-instance substreams and merges parallel
// work in index order.
func TestFindComponentsDeterministicAcrossExecutors(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	lab, err := gen.ExpanderUnion([]int{96, 64, 48}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"known-lambda", Options{Lambda: 0.3, Seed: 123}},
		{"oblivious", Options{Seed: 321, MaxWalkLength: 256}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Result {
				opts := tc.opts
				opts.Workers = workers
				res, err := FindComponents(lab.G, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1)
			if want.Components != lab.Count {
				t.Fatalf("sequential run found %d components, want %d", want.Components, lab.Count)
			}
			for _, workers := range []int{4, -1} {
				got := run(workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: FindComponents diverged from sequential (components %d vs %d, rounds %d vs %d)",
						workers, got.Components, want.Components, got.Stats.Rounds, want.Stats.Rounds)
				}
			}
		})
	}
}

// On two CPUs a batch count that is not a multiple of 2 leaves one
// randomization batch running alone at the tail, where its walk blocks
// recruit the CPU the other batch freed. Labels, statistics and rounds
// must still be bit-identical to the sequential run.
func TestFindComponentsDeterministicOnTwoCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lab, err := gen.ExpanderUnion([]int{120, 80}, 8, rand.New(rand.NewPCG(79, 80)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := FindComponents(lab.G, Options{Lambda: 0.3, Seed: 124, Engine: randomize.EngineDirect, PhaseExponent: 0.75, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.Components != lab.Count {
		t.Fatalf("sequential run found %d components, want %d", want.Components, lab.Count)
	}
	if want.Stats.Batches%2 == 0 {
		t.Fatalf("%d randomization batches; the test needs an odd count", want.Stats.Batches)
	}
	for rep := 0; rep < 2; rep++ {
		if got := run(-1); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Workers -1 diverged from Workers 1 (components %d vs %d, rounds %d vs %d)",
				rep, got.Components, want.Components, got.Stats.Rounds, want.Stats.Rounds)
		}
	}
}
