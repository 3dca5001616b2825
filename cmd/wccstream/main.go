// Command wccstream replays timestamped edge-batch traces against a live
// wccserve, exercising the dynamic connectivity path end to end: load the
// base graph, solve it once, then stream appended batches through
// POST /v1/graphs/{id}/edges — with optional interleaved connectivity
// queries — and report the sustained append throughput.
//
// Traces come from a churn spec (the same gen.Spec families wccgen and
// the service's generate endpoint speak, wrapped in gen.TraceSpec) or
// from a trace file recorded earlier with -write-trace:
//
//	# generate 200 batches of 50 edges over a G(n,d) base and replay
//	wccstream -addr http://localhost:8080 \
//	    -family gnd -n 20000 -d 8 -seed 3 \
//	    -batches 200 -batch-size 50 -intra 0.3 -queries 4
//
//	# record the same trace for later replays, then feed it back
//	wccstream -family gnd -n 20000 -d 8 -seed 3 -batches 200 \
//	    -batch-size 50 -write-trace churn.trace -write-graph base.txt
//	wccstream -addr http://localhost:8080 -graph base.txt -trace churn.trace
//
// The trace file format is line-oriented: "@ <offset-ms>" opens a batch
// stamped with its offset from stream start, and the lines up to the
// next "@" are that batch as an append body carries it, one "u v" edge
// per line, read and written by graph.ReadEdgeBatch and
// graph.WriteEdgeBatch like every append body. -pace honors the recorded
// timestamps during replay; the default replays as fast as the server
// accepts, which is what the batches/sec figure measures.
//
// With -verify, the final incremental labeling is cross-checked against
// a fresh full solve by a different registry algorithm on the final
// version — the dynamic path's exactness guarantee, asserted over HTTP.
//
// Against a replicated deployment, -targets fans the interleaved
// queries out across read replicas while the appends stay on -addr
// (replicas reject writes with 421):
//
//	wccstream -addr http://primary:8080 \
//	    -targets http://replica1:8080,http://replica2:8080 \
//	    -family gnd -n 20000 -d 8 -batches 200 -queries 4
//
// The summary then splits query counts, errors, and latency
// percentiles per target, so a lagging replica shows up as its own
// line rather than vanishing into the aggregate.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/retry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wccstream:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr   = flag.String("addr", "", "wccserve base URL (e.g. http://localhost:8080); required unless -write-trace")
		family = flag.String("family", "gnd", "base graph family for generated traces: "+strings.Join(gen.Families(), "|"))
		n      = flag.Int("n", 10000, "base graph vertices (family semantics)")
		d      = flag.Int("d", 8, "base graph degree parameter")
		sizes  = flag.String("sizes", "", "comma-separated component sizes (family union)")
		seed   = flag.Uint64("seed", 1, "base graph seed")

		batches   = flag.Int("batches", 100, "appended batches in a generated trace")
		batchSize = flag.Int("batch-size", 100, "edges per generated batch")
		intra     = flag.Float64("intra", 0.3, "fraction of generated edges duplicating earlier ones (intra-component churn)")
		traceSeed = flag.Uint64("trace-seed", 7, "churn randomness seed")

		graphFile  = flag.String("graph", "", "replay: base edge-list file (with -trace)")
		traceFile  = flag.String("trace", "", "replay: trace file recorded with -write-trace")
		writeTrace = flag.String("write-trace", "", "record the generated trace to this file and exit")
		writeGraph = flag.String("write-graph", "", "with -write-trace: also record the base edge list")
		spacing    = flag.Duration("spacing", 100*time.Millisecond, "timestamp spacing between recorded batches")

		algo    = flag.String("algo", "hashtomin", "algorithm for the initial solve and the queries")
		queries = flag.Int("queries", 0, "same-component queries interleaved after each batch")
		grow    = flag.Bool("grow", false, "append with ?grow=1 (endpoints may extend the vertex set)")
		pace    = flag.Bool("pace", false, "honor trace timestamps instead of replaying full speed")
		verify  = flag.Bool("verify", false, "cross-check the final labeling against a fresh full solve")
		retries = flag.Int("retries", 3, "retries per request for connection errors and 429/5xx responses (jittered backoff, honors Retry-After)")
		targets = flag.String("targets", "", "comma-separated read-target base URLs (replicas); interleaved queries rotate across them while appends stay on -addr, with per-target error/latency splits in the summary")
	)
	flag.Parse()

	sizeList, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	base, batchList, stamps, err := loadWorkload(*graphFile, *traceFile, *grow, gen.TraceSpec{
		Base:      gen.Spec{Family: *family, N: *n, D: *d, Sizes: sizeList, Seed: *seed},
		Batches:   *batches,
		BatchSize: *batchSize,
		IntraFrac: *intra,
		Seed:      *traceSeed,
	}, *spacing)
	if err != nil {
		return err
	}

	if *writeTrace != "" {
		if *writeGraph != "" {
			if err := writeEdgeListFile(*writeGraph, base); err != nil {
				return err
			}
		}
		return writeTraceFile(*writeTrace, batchList, stamps)
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (or -write-trace to record without a server)")
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative")
	}
	c := client.New(*addr, &http.Client{Timeout: 5 * time.Minute},
		retry.New(*retries+1, 10*time.Millisecond, time.Second, *traceSeed))
	// Read targets: replicas the interleaved queries rotate across.
	// Appends always go to -addr — a replica would refuse them with 421.
	readers, err := c.ReadTargets(*targets)
	if err != nil {
		return err
	}

	// Load the base graph and solve it once; every later answer is
	// incremental maintenance of this labeling.
	loaded, err := c.Load("wccstream", base)
	if err != nil {
		return err
	}
	id := loaded.ID
	fmt.Printf("loaded %s: n=%d m=%d batches=%d\n", id, base.N(), base.M(), len(batchList))
	solved, err := c.Solve(id, *algo, -1)
	if err != nil {
		return err
	}
	fmt.Printf("solved with %s: components=%d\n", *algo, solved.Components)

	// Each read target computes its own labeling: solve there before
	// the clock starts.
	for _, rc := range readers {
		if rc == c {
			continue
		}
		if err := rc.SolveReplicated(id, *algo); err != nil {
			return fmt.Errorf("read target %s: %w", rc.Base, err)
		}
	}

	rng := rand.New(rand.NewPCG(*traceSeed, 0xbeef))
	start := time.Now()
	edgesSent, queriesSent := 0, 0
	perQueries := make([]int, len(readers))
	perErrs := make([]int, len(readers))
	perLat := make([][]time.Duration, len(readers))
	for i, batch := range batchList {
		if *pace && i < len(stamps) {
			if wait := time.Until(start.Add(stamps[i])); wait > 0 {
				time.Sleep(wait)
			}
		}
		if _, err := c.Append(id, batch, *grow); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		edgesSent += len(batch)
		for q := 0; q < *queries; q++ {
			u, v := rng.IntN(base.N()), rng.IntN(base.N())
			ti := queriesSent % len(readers)
			t0 := time.Now()
			_, err := readers[ti].SameComponent(id, *algo, u, v)
			perLat[ti] = append(perLat[ti], time.Since(t0))
			perQueries[ti]++
			queriesSent++
			if err != nil {
				perErrs[ti]++
				return fmt.Errorf("batch %d query via %s: %w", i, readers[ti].Base, err)
			}
		}
	}
	elapsed := time.Since(start)

	vl, err := c.Versions(id)
	if err != nil {
		return err
	}
	final := vl.Versions[len(vl.Versions)-1]
	fmt.Printf("streamed %d batches (%d edges) in %v\n", len(batchList), edgesSent, elapsed.Round(time.Millisecond))
	fmt.Printf("sustained: %.1f batches/sec, %.0f edges/sec, %d interleaved queries, %d retries\n",
		float64(len(batchList))/elapsed.Seconds(), float64(edgesSent)/elapsed.Seconds(), queriesSent, c.Retries())
	if len(readers) > 1 {
		for ti, rc := range readers {
			lat := perLat[ti]
			line := fmt.Sprintf("  target %s: %d queries, %d errors", rc.Base, perQueries[ti], perErrs[ti])
			if len(lat) > 0 {
				slices.Sort(lat)
				line += fmt.Sprintf(", p50=%v p99=%v", lat[(len(lat)-1)/2], lat[(len(lat)*99+99)/100-1])
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("final: version=%d n=%d m=%d components=%d\n", final.Version, final.N, final.M, final.Components)

	if *verify {
		// Cross-check with a different exact implementation: the
		// sequential engine normally (instant at any size); an MPC
		// baseline when the stream itself ran on the engine's lineage.
		verifier := "dynamic"
		if *algo == "dynamic" {
			verifier = "hashtomin"
		}
		fresh, err := c.Solve(id, verifier, final.Version)
		if err != nil {
			return err
		}
		if fresh.Components != final.Components {
			return fmt.Errorf("VERIFY FAILED: incremental components=%d, fresh %s solve=%d",
				final.Components, verifier, fresh.Components)
		}
		fmt.Printf("verify: fresh %s solve agrees (components=%d)\n", verifier, fresh.Components)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q in -sizes", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadWorkload returns the base graph, the batches, and per-batch
// timestamp offsets — from files when -graph/-trace are set, generated
// from the churn spec otherwise. With grow, trace edges may name
// vertices beyond the base graph (the server extends the vertex set).
func loadWorkload(graphFile, traceFile string, grow bool, spec gen.TraceSpec, spacing time.Duration) (*graph.Graph, [][]graph.Edge, []time.Duration, error) {
	if (graphFile == "") != (traceFile == "") {
		return nil, nil, nil, fmt.Errorf("-graph and -trace go together")
	}
	if traceFile != "" {
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, nil, nil, err
		}
		base, err := graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", graphFile, err)
		}
		maxVertex := base.N()
		if grow {
			maxVertex = math.MaxInt32 // the server enforces its own ceiling
		}
		batches, stamps, err := readTraceFile(traceFile, maxVertex)
		if err != nil {
			return nil, nil, nil, err
		}
		return base, batches, stamps, nil
	}
	base, batches, err := spec.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	stamps := make([]time.Duration, len(batches))
	for i := range stamps {
		stamps[i] = time.Duration(i) * spacing
	}
	return base, batches, stamps, nil
}

func writeEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile records batches in the "@ <offset-ms>" + edge-line
// format readTraceFile parses.
func writeTraceFile(path string, batches [][]graph.Edge, stamps []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# wccstream trace: %d batches\n", len(batches))
	for i, batch := range batches {
		var ms int64
		if i < len(stamps) {
			ms = stamps[i].Milliseconds()
		}
		fmt.Fprintf(w, "@ %d\n", ms)
		if err := graph.WriteEdgeBatch(w, batch); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTraceFile splits a trace at its "@ <offset-ms>" lines and parses
// the lines after each one as a graph.ReadEdgeBatch body. Lines before
// the first "@" may only be blank or comments. A batch's errors name
// the line of its "@" and count their "batch line" from the line after.
func readTraceFile(path string, maxVertex int) ([][]graph.Edge, []time.Duration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var (
		batches [][]graph.Edge
		stamps  []time.Duration
		start   int // offset of the open batch's first line
		stampNo int // line of the open batch's "@", 0 before the first
	)
	closeBatch := func(end int) error {
		edges, err := graph.ReadEdgeBatch(bytes.NewReader(data[start:end]), maxVertex, math.MaxInt)
		switch {
		case stampNo == 0 && (err != nil || len(edges) > 0):
			return fmt.Errorf("%s: edge line before first @ timestamp", path)
		case err != nil:
			return fmt.Errorf("%s: batch at line %d: %w", path, stampNo, err)
		case stampNo > 0:
			batches = append(batches, edges)
		}
		return nil
	}
	for lineNo, rest := 1, data; len(rest) > 0; lineNo++ {
		off := len(data) - len(rest)
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] != '@' {
			continue
		}
		if err := closeBatch(off); err != nil {
			return nil, nil, err
		}
		ms, err := strconv.ParseInt(string(bytes.TrimSpace(line[1:])), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad timestamp: %w", path, lineNo, err)
		}
		stamps = append(stamps, time.Duration(ms)*time.Millisecond)
		start, stampNo = len(data)-len(rest), lineNo
	}
	if err := closeBatch(len(data)); err != nil {
		return nil, nil, err
	}
	return batches, stamps, nil
}
