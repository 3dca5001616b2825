// Command perfbench is the repository benchmark. One run executes four
// phases — cold-solve, query-storm, append-replicate and mpc-reference —
// against wccserve children built from the same checkout (and, for the
// paper pipeline, the algorithm registry in-process), checks every answer
// it gets, and prints one JSON result line. With --trace 1 it replays the
// phases in-process with a span recorder around each layer's public calls
// and prints the per-layer metrics instead.
//
// Run it from the repository root through the wrapper, which builds both
// binaries from source first:
//
//	bash perfbench/run.sh --workload giant-merging --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract with BENCHMARK.json (see main_test.go). The
// query-storm readings and the replication lag are measured too but not
// gated: on the reference host their ten-seed spreads exceeded any bound a
// gate could hold (README.md); they are printed with the details.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_answer_edges_per_s", "edges/s"},
	{"solve_edges_per_s", "edges/s"},
	{"restart_answer_edges_per_s", "edges/s"},
	{"append_p50_ms", "ms"},
	{"append_p95_ms", "ms"},
	{"replica_read_p50_us", "us"},
	{"mpc_solve_s", "s"},
	{"mpc_rounds", "rounds"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload name (giant-merging or fragmented-static)")
		seed         = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		secs         = flag.Int("seconds", 10, "seconds of timed load per run")
		trace        = flag.Int("trace", 0, "1 = in-process traced replay printing per-layer metrics")
	)
	flag.Parse()
	// The client shares the host with the servers it measures; collecting
	// its garbage less often leaves them more of the CPU.
	debug.SetGCPercent(400)
	w, ok := workloads[*workloadName]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The benchmark runs from the root of the checkout it measures; run.sh
	// has built wccserve there.
	const root = "."
	e, err := newEnv(root, filepath.Join(root, ".bench_build", "bin", "wccserve"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer e.close()

	rc := &runCtx{
		ctx: ctx, env: e, w: w, seed: *seed, budget: time.Duration(*secs) * time.Second,
		metrics: make(map[string]float64), details: make(map[string]any), setupParts: make(map[string]float64),
	}
	ticks0 := readTicks()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		err = runLayers(rc)
	} else {
		err = runEndToEnd(rc)
	}
	// Stop the children and remove the scratch dirs before printing: a
	// write to a closed stdout or stderr ends the process on the spot.
	e.close()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		return 130
	}
	attempted, failed, wrong, first := rc.t.snapshot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := rc.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (*trace == 0 && v == 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured (value %v)\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	// Readings the benchmark takes but does not gate on (see README.md)
	// go with the details.
	ungated := make(map[string]float64)
	for name, v := range rc.metrics {
		if _, ok := res.Metrics[name]; !ok {
			ungated[name] = v
		}
	}
	rc.details["ungated"] = ungated
	rc.details["host_steal_share"] = stealShare(ticks0)
	prov := provenance(root, e.work, *seed, w.name, *trace)
	info, _ := json.Marshal(map[string]any{"provenance": prov, "details": rc.details})
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if wrong > 0 || failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed (%d wrong answers); first: %v\n", failed, attempted, wrong, first)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
