// Command wccload is the query-storm load harness for wccserve: it
// drives the O(1) read path — lock-free and allocation-free on a cache
// hit — with many concurrent clients and reports sustained throughput
// and latency percentiles, so read-path regressions show up as numbers,
// not vibes. Unlike perfbench, it aims at a running deployment and its
// replicas. Every request goes through internal/client.
//
// It prepares the target itself (generate or reuse a graph, solve it
// once) and then hammers queries for a fixed duration:
//
//	# 8 workers, 10s of single GET same-component queries
//	wccload -addr http://localhost:8080 -family gnd -n 20000 -d 8 -c 8
//
//	# the same storm through POST /v1/query/batch, 64 queries per request
//	wccload -addr http://localhost:8080 -family gnd -n 20000 -d 8 -c 8 -batch 64
//
//	# against a graph something else already loaded
//	wccload -addr http://localhost:8080 -graph g-1234567890ab -algo hashtomin
//
//	# reads fanned across two replicas; writes (generate, solve) stay on
//	# the primary, and the summary splits errors and latency per target
//	wccload -addr http://primary:8080 \
//	    -targets http://replica1:8080,http://replica2:8080 \
//	    -family gnd -n 20000 -d 8 -c 8
//
// Output: requests/sec, queries/sec, error count, and client-observed
// latency p50/p90/p99/max per request, plus the server's cache hit
// ratio before and after (from /v1/stats) so a storm that silently
// missed the cache is visible. Single-query mode measures per-request
// overhead; batch mode shows how the one-lookup-per-batch endpoint
// amortizes it — comparing the two queries/sec figures is the point.
//
// The workload is uniform random vertex pairs from a fixed seed per
// worker: deterministic enough to compare runs, varied enough to touch
// every cache shard.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/retry"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wccload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "", "wccserve base URL (e.g. http://localhost:8080); required")
		graphID = flag.String("graph", "", "existing graph ID to query (skips generation)")
		family  = flag.String("family", "gnd", "graph family to generate when -graph is not set")
		n       = flag.Int("n", 20000, "generated graph vertices")
		d       = flag.Int("d", 8, "generated graph degree parameter")
		seed    = flag.Uint64("seed", 1, "generated graph seed")
		algo    = flag.String("algo", "hashtomin", "algorithm configuration to solve and query")
		conc    = flag.Int("c", 8, "concurrent client workers")
		dur     = flag.Duration("duration", 10*time.Second, "storm duration")
		batch   = flag.Int("batch", 0, "queries per request: 0 = single GETs, k>0 = POST /v1/query/batch with k queries")
		retries = flag.Int("retries", 3, "retries per request for connection errors and 429/5xx responses (jittered backoff, honors Retry-After)")
		targets = flag.String("targets", "", "comma-separated read-target base URLs (replicas); the query storm is spread across them while writes (generate, solve) stay on -addr, and the summary splits errors and latency per target")
	)
	flag.Parse()
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *conc <= 0 || *batch < 0 || *retries < 0 {
		return fmt.Errorf("-c must be positive, -batch and -retries non-negative")
	}
	c := client.New(*addr, &http.Client{Timeout: time.Minute},
		retry.New(*retries+1, 10*time.Millisecond, time.Second, *seed))
	// Read targets: the replicas queries fan out to. Writes always aim
	// at -addr (the primary — a replica would answer them 421); with no
	// -targets the primary serves the reads too.
	readers, err := c.ReadTargets(*targets)
	if err != nil {
		return err
	}

	// Prepare: resolve or generate the graph, then solve once so the
	// storm below is all cache hits — the path under test.
	var g service.GraphInfo
	if *graphID == "" {
		g, err = c.Generate(service.GenerateRequest{Name: "wccload",
			Spec: gen.Spec{Family: *family, N: *n, D: *d, Seed: *seed}})
	} else {
		g, err = c.Graph(*graphID)
	}
	if err != nil {
		return err
	}
	id, vertices := g.ID, g.N
	if _, err := c.Solve(id, *algo, -1); err != nil {
		return err
	}
	// Solve once per read target too, so the storm below measures the
	// query path, not first-query solve cost.
	for _, rc := range readers {
		if rc == c {
			continue
		}
		if err := rc.SolveReplicated(id, *algo); err != nil {
			return fmt.Errorf("read target %s: %w", rc.Base, err)
		}
	}
	fmt.Printf("target %s: n=%d algo=%s workers=%d duration=%v", id, vertices, *algo, *conc, *dur)
	if *batch > 0 {
		fmt.Printf(" batch=%d", *batch)
	}
	if readers[0] != c {
		fmt.Printf(" read-targets=%d", len(readers))
	}
	fmt.Println()

	before, err := c.Stats()
	if err != nil {
		return err
	}

	// Storm: every worker loops until the deadline, recording one
	// latency sample per request.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []time.Duration
		requests int64
		queries  int64
		errors   int64
		perLat   = make([][]time.Duration, len(readers))
		perReqs  = make([]int64, len(readers))
		perErrs  = make([]int64, len(readers))
	)
	deadline := time.Now().Add(*dur)
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Workers are dealt round-robin across the read targets, so
			// every target sees the same worker count (±1) and the
			// per-target split compares like with like.
			ti := worker % len(readers)
			rc := readers[ti]
			rng := rand.New(rand.NewPCG(uint64(worker)+1, 0x10ad))
			lat := make([]time.Duration, 0, 1<<16)
			var reqs, qs, errs int64
			var body bytes.Buffer
			urlBuf := make([]byte, 0, 256)
			for time.Now().Before(deadline) {
				var err error
				t0 := time.Now()
				if *batch > 0 {
					body.Reset()
					buildBatchBody(&body, id, *algo, *batch, rng, vertices)
					err = rc.QueryBatch(body.Bytes())
					qs += int64(*batch)
				} else {
					urlBuf = append(urlBuf[:0], "/v1/query/same-component?graph="...)
					urlBuf = append(urlBuf, id...)
					urlBuf = append(urlBuf, "&algo="...)
					urlBuf = append(urlBuf, *algo...)
					urlBuf = append(urlBuf, "&u="...)
					urlBuf = strconv.AppendInt(urlBuf, int64(rng.IntN(vertices)), 10)
					urlBuf = append(urlBuf, "&v="...)
					urlBuf = strconv.AppendInt(urlBuf, int64(rng.IntN(vertices)), 10)
					err = rc.Get(string(urlBuf))
					qs++
				}
				lat = append(lat, time.Since(t0))
				reqs++
				if err != nil {
					errs++
				}
			}
			mu.Lock()
			all = append(all, lat...)
			requests += reqs
			queries += qs
			errors += errs
			perLat[ti] = append(perLat[ti], lat...)
			perReqs[ti] += reqs
			perErrs[ti] += errs
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := c.Stats()
	if err != nil {
		return err
	}

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Printf("sustained: %.0f requests/sec, %.0f queries/sec over %v (%d errors, %d retries)\n",
		float64(requests)/elapsed.Seconds(), float64(queries)/elapsed.Seconds(),
		elapsed.Round(time.Millisecond), errors, c.Retries())
	if len(all) > 0 {
		fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
			pct(all, 50), pct(all, 90), pct(all, 99), all[len(all)-1])
	}
	// Per-target split: with reads fanned across replicas, a lagging or
	// flaky target shows up as its own error count and latency tail, not
	// as noise smeared over the aggregate.
	if len(readers) > 1 {
		for ti, rc := range readers {
			lat := perLat[ti]
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			line := fmt.Sprintf("  target %s: %d requests, %d errors", rc.Base, perReqs[ti], perErrs[ti])
			if len(lat) > 0 {
				line += fmt.Sprintf(", p50=%v p99=%v max=%v", pct(lat, 50), pct(lat, 99), lat[len(lat)-1])
			}
			fmt.Println(line)
		}
	}
	dh, dl := after.Hits-before.Hits, after.Hits+after.Misses-before.Hits-before.Misses
	ratio := 0.0
	if dl > 0 {
		ratio = float64(dh) / float64(dl)
	}
	fmt.Printf("server: %d lookups during the storm, cache hit ratio %.4f (lifetime %.4f)\n",
		dl, ratio, after.HitRatio)
	if errors > 0 {
		return fmt.Errorf("%d requests failed", errors)
	}
	return nil
}

// pct returns the p-th percentile of an ascending sample by the
// nearest-rank method: the ceil(len·p/100)-th smallest value (1-based).
// The naive len*p/100 index over-reports every percentile by one rank —
// with 2 samples it calls the maximum the median.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p+99)/100 - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// buildBatchBody appends a /v1/query/batch request of k same-component
// queries; hand-assembled so the load generator itself is not the
// bottleneck it is trying to find.
func buildBatchBody(w *bytes.Buffer, id, algo string, k int, rng *rand.Rand, n int) {
	w.WriteString(`{"graph":"`)
	w.WriteString(id)
	w.WriteString(`","algo":"`)
	w.WriteString(algo)
	w.WriteString(`","queries":[`)
	for i := 0; i < k; i++ {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"op":"same-component","u":%d,"v":%d}`, rng.IntN(n), rng.IntN(n))
	}
	w.WriteString(`]}`)
}
