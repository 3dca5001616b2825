package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
)

// workload is one traffic mix. Every run executes all four phases
// (cold-solve, query-storm, append-replicate, mpc-reference); a workload
// picks the input properties the serving path depends on.
type workload struct {
	name string
	// queryOn is the cold-solve family the query-storm phase reads.
	queryOn string
	// intraFrac is the share of each appended batch that duplicates a
	// known edge; the rest are random pairs that merge components.
	intraFrac float64
}

var workloads = map[string]workload{
	"giant-merging":     {name: "giant-merging", queryOn: "gnd", intraFrac: 0.99},
	"fragmented-static": {name: "fragmented-static", queryOn: "union", intraFrac: 1.0},
}

// Phase shares of --seconds, and the fixed parameters of the timed loops.
const (
	shareClosed = 0.03 // query-storm closed loop
	shareOpen   = 0.05 // query-storm open loop
	shareBatch  = 0.02 // query-storm batch-64 closed loop
	shareAppend = 0.90 // append-replicate write stream

	// rounds is how many times a run repeats its phases, in turn. Every
	// metric is sampled in every round, so its samples spread over the
	// whole run: the shared host's speed drifts over tens of seconds, and
	// a slow spell then weighs on one round of each metric instead of on
	// the whole of whichever phase it fell in.
	rounds = 3

	// openRate is the open-loop request rate, under half the one-connection
	// closed-loop capacity of the reference host, so that the host's slow
	// spells (its speed drifts by a third) do not tip the queue into
	// overload and make the latency measure them.
	openRate      = 2000
	batchSize     = 64
	maxAppendRate = 100 // bounds the pre-generated batches
	warmAppends   = 70  // past the 65-version retained window, where compaction starts
)

// runCtx carries one run's state: its inputs, its tally and its metrics.
type runCtx struct {
	ctx        context.Context
	env        *env
	w          workload
	seed       uint64
	budget     time.Duration
	t          tally
	setup      float64            // unstolen seconds of untimed preparation, summed
	setupParts map[string]float64 // wall seconds of setup, by step, for the details
	metrics    map[string]float64
	details    map[string]any
}

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// timed adds the interval w has timed to the set-up time, under part.
func (rc *runCtx) timed(part string, w stopwatch) {
	wall, unstolen := w.stop()
	rc.setup += unstolen
	rc.setupParts[part] += wall
}

// e2eInputs is everything a run sends, generated once from the seed.
type e2eInputs struct {
	mpc    *family
	fams   map[string]*family
	edges  float64        // edges of the cold families together
	base   *graph.Graph   // append-replicate base graph
	text   []byte         // base as the upload body
	trace  [][]graph.Edge // appended batches, warm-up first
	bodies [][]byte       // trace as upload bodies
}

func newInputs(rc *runCtx) (*e2eInputs, error) {
	in := &e2eInputs{fams: make(map[string]*family, len(coldFamilies))}
	var err error
	if in.mpc, err = newFamily("mpc", mpcSeed, false); err != nil {
		return nil, err
	}
	for _, name := range coldFamilies {
		if in.fams[name], err = newFamily(name, rc.seed, true); err != nil {
			return nil, err
		}
		in.edges += float64(in.fams[name].g.M())
	}
	window := scale(rc.budget, shareAppend/rounds)
	maxBatches := warmAppends + int(window.Seconds()*maxAppendRate) + 1
	if in.base, in.trace, err = appendTrace(rc.seed, maxBatches, rc.w.intraFrac); err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, in.base); err != nil {
		return nil, err
	}
	in.text = text.Bytes()
	in.bodies = make([][]byte, len(in.trace))
	for i, b := range in.trace {
		var buf bytes.Buffer
		if err := graph.WriteEdgeBatch(&buf, b); err != nil {
			return nil, err
		}
		in.bodies[i] = buf.Bytes()
	}
	return in, nil
}

// e2eSamples pools the readings of every round.
type e2eSamples struct {
	cold, restart []float64            // edges/s of each cold pass and of each restart
	solves        map[string][]float64 // seconds of each real solve, by family
	coldPasses    []map[string]any     // readings of each round, for the details
	setups        []float64            // set-up seconds of each round

	rps, p50, p99, late50, late99, bqps []float64 // one per query-storm window
	closed, open, batches               int

	ackLat, readLat, lag samples
	polls                []float64
	appendRounds         []map[string]any

	mpc mpcRuns
}

// runEndToEnd executes the four phases against wccserve children and the
// in-process registry, rounds times in turn, filling rc.metrics with every
// end-to-end metric. Latency percentiles pool the samples of every round;
// the other readings are medians over the rounds.
func runEndToEnd(rc *runCtx) error {
	t0 := time.Now()
	in, err := newInputs(rc)
	if err != nil {
		return err
	}
	rc.details["input_s"] = seconds(time.Since(t0))
	s := &e2eSamples{
		solves: make(map[string][]float64),
		ackLat: samples{unit: time.Millisecond}, readLat: samples{unit: time.Microsecond}, lag: samples{unit: time.Millisecond},
	}
	for r := 0; r < rounds; r++ {
		setup0 := rc.setup
		if err := rc.coldRound(in, s); err != nil {
			return fmt.Errorf("cold-solve: %w", err)
		}
		if err := rc.mpcReference(in.mpc, &s.mpc); err != nil {
			return fmt.Errorf("mpc-reference: %w", err)
		}
		if err := rc.appendRound(in, s); err != nil {
			return fmt.Errorf("append-replicate: %w", err)
		}
		s.setups = append(s.setups, rc.setup-setup0)
	}
	rc.details["rounds"] = map[string]any{
		"cold_answer_edges_per_s": append([]float64(nil), s.cold...),
		"mpc_solve_s":             append([]float64(nil), s.mpc.secs...), "mpc_solve_wall_s": s.mpc.wall,
		"setup_s": append([]float64(nil), s.setups...), "setup_parts_wall_s": rc.setupParts,
	}

	solveTotal := 0.0
	for _, xs := range s.solves {
		solveTotal += median(xs)
	}
	rc.set("cold_answer_edges_per_s", median(s.cold))
	rc.set("restart_answer_edges_per_s", median(s.restart))
	rc.set("solve_edges_per_s", in.edges/solveTotal)
	rc.details["cold-solve"] = map[string]any{"edges": in.edges, "passes": s.coldPasses}

	rc.set("query_rps", median(s.rps))
	rc.set("query_p50_us", median(s.p50))
	rc.set("batch_qps", median(s.bqps))
	rc.details["query-storm"] = map[string]any{
		"graph": rc.w.queryOn, "closed_requests": s.closed, "open_rate_per_s": openRate,
		"open_requests": s.open, "open_p99_us": median(s.p99), "open_late_p50_us": median(s.late50), "open_late_p99_us": median(s.late99),
		"batches": s.batches, "windows": len(s.rps),
	}

	rc.set("append_p50_ms", s.ackLat.pct(50))
	rc.set("append_p95_ms", s.ackLat.pct(95))
	rc.set("repl_lag_p50_ms", s.lag.pct(50))
	rc.set("repl_lag_p95_ms", s.lag.pct(95))
	rc.set("replica_read_p50_us", s.readLat.pct(50))
	rc.details["append-replicate"] = map[string]any{
		"appends_timed": len(s.ackLat.xs), "replica_reads": len(s.readLat.xs), "lag_samples": len(s.lag.xs),
		"lag_resolution_poll_us": median(s.polls), "intra_frac": rc.w.intraFrac, "rounds": s.appendRounds,
	}

	rc.t.check(checkRoundsRepeat(s.mpc.rounds))
	rc.set("mpc_solve_s", median(s.mpc.secs))
	rc.set("mpc_rounds", float64(s.mpc.rounds[0]))
	rc.set("setup_s", median(s.setups))
	return nil
}

// coldRound runs one cold pass on a fresh server and data dir (the store is
// content-addressed, so a second upload to the same one would be
// deduplicated): it uploads each family, solves it and asks one query.
// Then it restarts the server on the same data dir, times the graphs back
// to their first answers, and runs a query-storm window on the restarted
// server, which has every family solved. Every time it records
// leaves out the time the hypervisor took (stopwatch); the wall times go
// with the details.
func (rc *runCtx) coldRound(in *e2eInputs, s *e2eSamples) error {
	details := map[string]any{}
	s.coldPasses = append(s.coldPasses, details)
	dir, ids, err := rc.coldPass(in, s, details)
	if err != nil {
		return err
	}
	w := startWatch()
	srv, err := rc.env.start(rc.ctx, "cold-restart", "-data-dir", dir)
	if err != nil {
		return err
	}
	c := newClient(srv.url, 1)
	defer c.close()
	var solveSecs []float64
	for _, name := range coldFamilies {
		secs, err := rc.solveAndProbe(c, ids[name], in.fams[name])
		if err != nil {
			return err
		}
		solveSecs = append(solveSecs, secs)
	}
	wall, unstolen := w.stop()
	for k, name := range coldFamilies {
		s.solves[name] = append(s.solves[name], solveSecs[k]*unstolen/wall)
	}
	s.restart = append(s.restart, in.edges/unstolen)
	details["restart_s"], details["restart_wall_s"] = unstolen, wall
	qf := in.fams[rc.w.queryOn]
	if err := rc.queryStorm(srv, ids[qf.name], qf, s); err != nil {
		return fmt.Errorf("query-storm: %w", err)
	}
	return rc.stopUntimed(srv)
}

// coldPass uploads every family to a fresh server on a fresh data dir and
// times each from upload start to its first answered query. It stops the
// server and returns the data dir and the graph IDs.
func (rc *runCtx) coldPass(in *e2eInputs, s *e2eSamples, details map[string]any) (string, map[string]string, error) {
	t0 := startWatch()
	dir, err := rc.env.tempDir("cold")
	if err != nil {
		return "", nil, err
	}
	srv, err := rc.env.start(rc.ctx, "cold", "-data-dir", dir)
	if err != nil {
		return "", nil, err
	}
	c := newClient(srv.url, 1)
	defer c.close()
	rc.timed("cold-server-start", t0)

	ids := make(map[string]string)
	var coldSecs, raw, solveSecs []float64
	// The labeling cache key ignores the parallel solver's seed, so a graph
	// is solved for real once per server process: here and after the
	// restart.
	for _, name := range coldFamilies {
		f := in.fams[name]
		w := startWatch()
		g, err := c.load(name, f.text)
		if err != nil {
			rc.t.fail(err)
			return "", nil, err
		}
		if g.N != f.g.N() || g.M != f.g.M() {
			err := fmt.Errorf("%s loaded as n=%d m=%d, uploaded n=%d m=%d", name, g.N, g.M, f.g.N(), f.g.M())
			rc.t.check(err)
			return "", nil, err
		}
		ids[name] = g.ID
		secs, err := rc.solveAndProbe(c, g.ID, f)
		if err != nil {
			return "", nil, err
		}
		wall, unstolen := w.stop()
		coldSecs = append(coldSecs, unstolen)
		raw = append(raw, wall)
		// A solve is too short for the tick counters; it takes the
		// correction of the interval around it.
		solveSecs = append(solveSecs, secs*unstolen/wall)
		s.solves[name] = append(s.solves[name], secs*unstolen/wall)
	}
	s.cold = append(s.cold, in.edges/sum(coldSecs))
	details["cold_answer_s"], details["cold_answer_wall_s"], details["solve_s"] = coldSecs, raw, solveSecs
	return dir, ids, rc.stopUntimed(srv)
}

// solveAndProbe solves graph id with the default solver, asks one checked
// query, and returns the client-observed solve time.
func (rc *runCtx) solveAndProbe(c *client, id string, f *family) (float64, error) {
	s0 := time.Now()
	if err := c.solve(id, "parallel", 0); err != nil {
		rc.t.fail(err)
		return 0, err
	}
	secs := seconds(time.Since(s0))
	rc.t.ok()
	probe := pairs(f.g.N(), 1, subSeed(rc.seed, "probe-"+f.name))
	same, err := c.querier(id).same(probe[0][0], probe[0][1])
	if err != nil {
		rc.t.fail(err)
		return 0, err
	}
	rc.t.check(checkSame(f.labels, probe[0][0], probe[0][1], same))
	return secs, nil
}

// stopUntimed stops a server, counting the shutdown as set-up time.
func (rc *runCtx) stopUntimed(s *server) error {
	defer rc.timed("server-stop", startWatch())
	return s.stop()
}

// loop calls body until the deadline or its first error and returns the
// operations completed and the time they took.
func loop(ctx context.Context, d time.Duration, body func(i int) error) (int, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	n := 0
	for ; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		if body(n) != nil {
			break
		}
	}
	return n, time.Since(start)
}

// queryStorm drives the read path of one solved graph for one round's
// window: closed-loop single queries, open-loop single queries at
// openRate, and closed-loop batches. It uses one goroutine and one
// connection: the design allows up to nproc (2 on the reference host), and
// one keeps the client's and the server's busy threads from outnumbering
// its vCPUs.
func (rc *runCtx) queryStorm(srv *server, id string, f *family, s *e2eSamples) error {
	c := newClient(srv.url, 1)
	defer c.close()
	ps := pairs(f.g.N(), 1<<16, subSeed(rc.seed, "pairs"))
	q := c.querier(id)
	single := func(i int) error {
		p := ps[i&(len(ps)-1)]
		same, err := q.same(p[0], p[1])
		if err != nil {
			rc.t.fail(err)
			return err
		}
		if err := checkSame(f.labels, p[0], p[1], same); err != nil {
			rc.t.check(err)
			return err
		}
		rc.t.ok()
		return nil
	}
	t0 := startWatch()
	loop(rc.ctx, 50*time.Millisecond, single) // warm the connection and caches
	rc.timed("query-warmup", t0)

	var res batchResult
	batch := func(i int) error {
		off := (i * batchSize) & (len(ps) - 1)
		chunk := ps[off : off+batchSize]
		if err := q.batch(chunk, &res); err != nil {
			rc.t.fail(err)
			return err
		}
		if err := checkBatch(f.labels, chunk, &res); err != nil {
			rc.t.check(err)
			return err
		}
		rc.t.ok()
		return nil
	}
	n, d := loop(rc.ctx, scale(rc.budget, shareClosed/rounds), single)
	s.rps = append(s.rps, float64(n)/seconds(d))
	s.closed += n
	lat, late := rc.openLoop(q, ps, f, scale(rc.budget, shareOpen/rounds))
	s.p50 = append(s.p50, lat.pct(50))
	s.p99 = append(s.p99, lat.pct(99))
	s.late50 = append(s.late50, late.pct(50))
	s.late99 = append(s.late99, late.pct(99))
	s.open += len(lat.xs)
	n, d = loop(rc.ctx, scale(rc.budget, shareBatch/rounds), batch)
	s.bqps = append(s.bqps, float64(n*batchSize)/seconds(d))
	s.batches += n
	return nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// openLoop sends single queries on a fixed schedule of openRate per second
// and times each from when it was due. late collects how far behind
// schedule each send started.
func (rc *runCtx) openLoop(q *querier, ps [][2]graph.Vertex, f *family, d time.Duration) (lat, late samples) {
	lat.unit, late.unit = time.Microsecond, time.Microsecond
	interval := time.Second / openRate
	start := time.Now().Add(5 * time.Millisecond)
	for k := 0; k < int(d/interval) && rc.ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		sent := time.Now()
		p := ps[k&(len(ps)-1)]
		same, err := q.same(p[0], p[1])
		if err != nil {
			rc.t.fail(err)
			continue
		}
		done := time.Now()
		rc.t.check(checkSame(f.labels, p[0], p[1], same))
		lat.add(done.Sub(due))
		late.add(sent.Sub(due))
	}
	return lat, late
}

// sleepUntil blocks the calling thread until t. time.Sleep rounds short
// waits up to the scheduler's millisecond timer tick, which would make the
// open-loop generator itself late; nanosleep waits with the kernel's
// high-resolution timer and spins nothing.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// replicaRead is one reader observation of the replica.
type replicaRead struct {
	at      time.Duration // response time since the window start
	version int
	u, v    graph.Vertex
	same    bool
}

// appendRound sets up a fresh primary and replica, pushes the warm-up
// appends past the retained window, then runs one round's window of a
// closed-loop writer against the primary beside a closed-loop reader of
// the replica. Each round starts from the same base and batches, so the
// rounds repeat one measurement.
func (rc *runCtx) appendRound(in *e2eInputs, s *e2eSamples) error {
	t0 := startWatch()
	pdir, err := rc.env.tempDir("primary")
	if err != nil {
		return err
	}
	rdir, err := rc.env.tempDir("replica")
	if err != nil {
		return err
	}
	primary, err := rc.env.start(rc.ctx, "primary", "-data-dir", pdir)
	if err != nil {
		return err
	}
	replica, err := rc.env.start(rc.ctx, "replica", "-data-dir", rdir, "-replica-of", primary.url)
	if err != nil {
		return err
	}
	cp, cr := newClient(primary.url, 1), newClient(replica.url, 1)
	defer cp.close()
	defer cr.close()
	base, batches, bodies := in.base, in.trace, in.bodies
	g, err := cp.load("append-base", in.text)
	if err != nil {
		return err
	}
	for _, name := range []string{"parallel", "dynamic", "labelprop"} {
		if err := cp.solve(g.ID, name, 0); err != nil {
			return err
		}
	}
	if err := waitVersion(rc.ctx, cr, g.ID, 0); err != nil {
		return err
	}
	if err := cr.solve(g.ID, "parallel", 0); err != nil {
		return err
	}
	for i := 0; i < warmAppends; i++ {
		v, err := cp.appendBatch(g.ID, bodies[i])
		if err != nil {
			rc.t.fail(err)
			return err
		}
		rc.t.check(expectVersion(v, i+1))
	}
	rc.timed("append-setup", t0)

	// The timed window: one writer, one reader, one shared clock.
	var (
		wg      sync.WaitGroup
		acks    = make(map[int]time.Duration)
		ackLat  = samples{unit: time.Millisecond}
		reads   []replicaRead
		readLat = samples{unit: time.Microsecond}
		applied = warmAppends
	)
	w := startWatch()
	start := w.start
	deadline := start.Add(scale(rc.budget, shareAppend/rounds))
	ctx, cancel := context.WithDeadline(rc.ctx, deadline)
	defer cancel()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := warmAppends; i < len(bodies) && ctx.Err() == nil; i++ {
			s := time.Now()
			v, err := cp.appendBatch(g.ID, bodies[i])
			if err != nil {
				rc.t.fail(err)
				return
			}
			done := time.Now()
			if err := expectVersion(v, i+1); err != nil {
				rc.t.check(err)
				return
			}
			rc.t.ok()
			ackLat.add(done.Sub(s))
			acks[v.Version] = done.Sub(start)
			applied = i + 1
		}
	}()
	go func() {
		defer wg.Done()
		q := cr.querier(g.ID)
		ps := pairs(base.N(), 1<<12, subSeed(rc.seed, "replica-pairs"))
		var res batchResult
		for i := 0; ctx.Err() == nil; i++ {
			k := i & (len(ps) - 1)
			p := ps[k]
			s := time.Now()
			if err := q.batch(ps[k:k+1], &res); err != nil {
				rc.t.fail(err)
				return
			}
			done := time.Now()
			readLat.add(done.Sub(s))
			if res.Results[0].Same == nil {
				rc.t.check(fmt.Errorf("replica answered %q", res.Results[0].Error))
				return
			}
			reads = append(reads, replicaRead{at: done.Sub(start), version: res.Version, u: p[0], v: p[1], same: *res.Results[0].Same})
		}
	}()
	wg.Wait()
	wall, unstolen := w.stop()
	if _, _, wrong, first := rc.t.snapshot(); wrong > 0 || first != nil {
		return fmt.Errorf("write stream: %v", first)
	}

	// Checks: every replica answer against the exact partition at the
	// version it reported, the replica's final digest against the
	// primary's, and the final component count against graph.Components.
	for _, err := range checkReads(base, batches, reads) {
		rc.t.check(err)
	}
	pg, err := cp.graph(g.ID)
	if err != nil {
		return err
	}
	if err := waitVersion(rc.ctx, cr, g.ID, pg.Version); err != nil {
		return err
	}
	rg, err := cr.graph(g.ID)
	if err != nil {
		return err
	}
	rc.t.check(checkReplica(pg, rg))
	rc.t.check(checkFinalComponents(base.N(), base, batches[:applied], pg.Components))
	rc.t.check(expectVersion(pg, applied))

	lag, poll := replLag(acks, reads)
	// Each latency takes the correction of the window it fell in.
	for _, x := range ackLat.xs {
		s.ackLat.xs = append(s.ackLat.xs, x*unstolen/wall)
	}
	for _, x := range readLat.xs {
		s.readLat.xs = append(s.readLat.xs, x*unstolen/wall)
	}
	s.lag.xs = append(s.lag.xs, lag.xs...)
	s.polls = append(s.polls, poll)
	s.appendRounds = append(s.appendRounds, map[string]any{
		"appends_timed": len(ackLat.xs), "wall_p50_ms": ackLat.pct(50), "wall_p95_ms": ackLat.pct(95), "unstolen_share": unstolen / wall,
		"wall_replica_read_p50_us": readLat.pct(50), "final_version": pg.Version, "final_components": pg.Components,
	})
	if err := rc.stopUntimed(replica); err != nil {
		return err
	}
	return rc.stopUntimed(primary)
}

func expectVersion(v graphInfo, want int) error {
	if v.Version != want {
		return fmt.Errorf("append acknowledged version %d, want %d", v.Version, want)
	}
	return nil
}

// waitVersion polls the server until graph id exists at version >= v.
func waitVersion(ctx context.Context, c *client, id string, v int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, err := c.graph(id)
		if err == nil && g.Version >= v {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("graph %s not at version %d within 30s (last: %+v, %v)", id, v, g, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// checkReads verifies each replica answer against the exact partition of
// the version the replica answered at, replaying the batches in a
// union-find.
func checkReads(base *graph.Graph, batches [][]graph.Edge, reads []replicaRead) []error {
	sorted := append([]replicaRead(nil), reads...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].version < sorted[j].version })
	uf := graph.NewUnionFind(base.N())
	base.ForEachEdge(func(e graph.Edge) { uf.Union(e.U, e.V) })
	var errs []error
	at := 0
	for _, r := range sorted {
		if r.version > len(batches) {
			errs = append(errs, fmt.Errorf("replica answered at version %d, only %d batches exist", r.version, len(batches)))
			continue
		}
		for ; at < r.version; at++ {
			for _, e := range batches[at] {
				uf.Union(e.U, e.V)
			}
		}
		if want := uf.Connected(r.u, r.v); want != r.same {
			errs = append(errs, fmt.Errorf("replica same-component(%d,%d)@v%d = %v, want %v", r.u, r.v, r.version, r.same, want))
		} else {
			errs = append(errs, nil)
		}
	}
	return errs
}

// replLag pairs each acknowledged version with the first reader response
// at that version or later. poll is the reader's median interval, the
// resolution of the lag samples.
func replLag(acks map[int]time.Duration, reads []replicaRead) (lag samples, poll float64) {
	lag.unit = time.Millisecond
	seen := make(map[int]time.Duration)
	top := -1
	var gaps []float64
	for i, r := range reads {
		if i > 0 {
			gaps = append(gaps, micros(r.at-reads[i-1].at))
		}
		for v := top + 1; v <= r.version; v++ {
			seen[v] = r.at
		}
		if r.version > top {
			top = r.version
		}
	}
	for v, ack := range acks {
		at, ok := seen[v]
		if !ok {
			continue
		}
		d := at - ack
		if d < 0 {
			d = 0 // the replica answered at v before the primary's ack arrived
		}
		lag.add(d)
	}
	return lag, median(gaps)
}

// mpcRuns collects the unstolen and wall time and the rounds of each
// pipeline solve.
type mpcRuns struct {
	secs, wall []float64
	rounds     []int
}

// mpcReference solves the mpc input with the paper pipeline in-process,
// checks the labels and adds the solve to runs.
func (rc *runCtx) mpcReference(f *family, runs *mpcRuns) error {
	// Every solve starts from a collected heap, whatever the phase before
	// it left behind.
	runtime.GC()
	w := startWatch()
	res, err := algo.Find("wcc", f.g, algo.Options{Lambda: mpcLambda, Seed: subSeed(mpcSeed, "mpc-solve"), Workers: -1})
	if err != nil {
		rc.t.fail(err)
		return err
	}
	wall, unstolen := w.stop()
	runs.secs = append(runs.secs, unstolen)
	runs.wall = append(runs.wall, wall)
	runs.rounds = append(runs.rounds, res.Rounds)
	rc.t.check(checkLabels(f.g, res.Labels))
	return nil
}
