// Command wccbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per experiment of internal/bench (E1–E15, and the ablations
// A1–A4 with -ablations).
//
// Usage:
//
//	wccbench                 # all experiments, full workloads
//	wccbench -quick          # reduced workloads
//	wccbench -only E1,E9     # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wccbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick     = flag.Bool("quick", false, "reduced workload sizes")
		only      = flag.String("only", "", "comma-separated experiment IDs (default all)")
		ablations = flag.Bool("ablations", false, "also run the design-choice ablations A1–A4")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", -1, "simulator workers: 1 sequential, k>1 bounded pool, -1 GOMAXPROCS (results identical for a fixed seed)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			want[id] = true
		}
	}
	cfg := bench.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	runners := bench.All()
	if *ablations || anyAblation(want) {
		runners = append(runners, bench.Ablations()...)
	}
	// Reject unknown IDs up front: silently skipping them would run a
	// subset (or nothing) while still exiting 0.
	if err := checkIDs(want); err != nil {
		return err
	}
	ran := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tab, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("  (%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", *only)
	}
	return nil
}

func anyAblation(want map[string]bool) bool {
	for id := range want {
		if strings.HasPrefix(id, "A") {
			return true
		}
	}
	return false
}

// checkIDs rejects -only entries that name no experiment, listing the
// valid IDs so typos surface instead of silently shrinking the run.
func checkIDs(want map[string]bool) error {
	valid := map[string]bool{}
	var ids []string
	for _, r := range append(bench.All(), bench.Ablations()...) {
		valid[r.ID] = true
		ids = append(ids, r.ID)
	}
	var unknown []string
	for id := range want {
		if !valid[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("unknown experiment IDs %s (valid: %s)",
		strings.Join(unknown, ","), strings.Join(ids, ","))
}
