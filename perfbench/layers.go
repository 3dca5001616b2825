package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/service"
	"repro/internal/store"
)

// perLayer lists the traced run's metrics, one layer per name prefix.
var perLayer = []metricDef{
	{"graph.parse_edges_per_s", "edges/s"},
	{"graph.wccb1_decode_ms", "ms"},
	{"graph.wccm1_open_ms", "ms"},
	{"graph.wccb1_bytes_per_edge", "B/edge"},
	{"graph.wccm1_bytes_per_edge", "B/edge"},
	{"store.put_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.append_p50_us", "us"},
	{"store.append_p95_ms", "ms"},
	{"store.fsync_p50_us", "us"},
	{"store.syncs_per_append", "count"},
	{"store.write_amplification", "ratio"},
	{"store.compaction_ms", "ms"},
	{"store.compactions_per_append", "count"},
	{"parallel.solve_edges_per_s", "edges/s"},
	{"parallel.solve_mapped_edges_per_s", "edges/s"},
	{"parallel.skip_ratio.gnd", "ratio"},
	{"parallel.skip_ratio.union", "ratio"},
	{"parallel.skip_ratio.grid", "ratio"},
	{"parallel.worker_speedup", "ratio"},
	{"dynamic.apply_us", "us"},
	{"dynamic.merge_labels_ms", "ms"},
	{"service.lookup_ns", "ns"},
	{"service.lookup_allocs", "count"},
	{"service.query_handler_us", "us"},
	{"service.http_overhead_us", "us"},
	{"service.append_self_ms", "ms"},
	{"service.merges_per_append", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.solve_handler_ms", "ms"},
	{"service.load_handler_ms", "ms"},
	{"repl.apply_lag_p50_ms", "ms"},
	{"repl.replica_fsync_p50_us", "us"},
	{"repl.rejected_ratio", "ratio"},
	{"repl.reconnects", "count"},
	{"core.rounds.regularize", "rounds"},
	{"core.rounds.randomize", "rounds"},
	{"core.rounds.grow", "rounds"},
	{"core.rounds.finish", "rounds"},
	{"mpc.total_messages", "count"},
	{"mpc.max_machine_load", "count"},
	{"core.solve_edges_per_s", "edges/s"},
	{"core.worker_speedup", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// Sizes of the traced replay's timed loops.
const (
	layerAppends   = 60              // timed appends after the warm-up, per append replay
	layerLookups   = 300000          // Service.Lookup calls per timing
	layerQueryTime = 2 * time.Second // traced plus untraced query loops
)

// layerRun is the state of one traced run.
type layerRun struct {
	*runCtx
	rec *recorder
}

// runLayers replays the four phases in-process, recording a span around
// every call into a layer's public functions, and derives the per-layer
// metrics from the spans. The spans are written to .bench_build/traces.
func runLayers(rc *runCtx) error {
	lr := &layerRun{runCtx: rc, rec: newRecorder()}
	if err := lr.core(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	fams := make(map[string]*family)
	for _, name := range coldFamilies {
		f, err := newFamily(name, rc.seed, true)
		if err != nil {
			return err
		}
		fams[name] = f
	}
	steps := []struct {
		name string
		fn   func(map[string]*family) error
	}{
		{"graph+parallel", lr.graphAndParallel},
		{"store", lr.store},
		{"service", lr.service},
	}
	for _, s := range steps {
		if err := s.fn(fams); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	fams = nil
	if err := lr.appendPath(); err != nil {
		return fmt.Errorf("append path: %w", err)
	}
	path := filepath.Join(rc.env.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", rc.w.name, rc.seed))
	rc.details["spans_file"] = path
	return lr.rec.write(path)
}

// graphAndParallel times the codecs and the native solver on the cold
// families.
func (lr *layerRun) graphAndParallel(fams map[string]*family) error {
	var edges, parse, decode, open, b1, m1, solve, solveView, solve1 float64
	for _, name := range coldFamilies {
		f := fams[name]
		m := float64(f.g.M())
		edges += m
		var g *graph.Graph
		var err error
		s := lr.rec.timeCall("graph.parse", 0, func() {
			g, err = graph.ReadEdgeListLimit(bytes.NewReader(f.text), 0, 0)
		})
		if err != nil {
			return err
		}
		lr.t.check(sameGraph(f.g, g))
		parse += seconds(s.dur())

		var bin bytes.Buffer
		if err := graph.WriteBinary(&bin, g); err != nil {
			return err
		}
		b1 += float64(bin.Len())
		s = lr.rec.timeCall("graph.wccb1_decode", 0, func() { g, err = graph.ReadBinary(bytes.NewReader(bin.Bytes())) })
		if err != nil {
			return err
		}
		lr.t.check(sameGraph(f.g, g))
		decode += millis(s.dur())

		dir, err := lr.env.tempDir("mapped-" + name)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "graph.wccm1")
		if err := writeMappedFile(path, g); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		m1 += float64(st.Size())
		var mapping fault.Mapping
		var mg *graph.MappedGraph
		s = lr.rec.timeCall("graph.wccm1_open", 0, func() {
			if mapping, err = (fault.OS{}).Map(path); err == nil {
				mg, err = graph.OpenMappedSource(mapping)
			}
		})
		if err != nil {
			return err
		}
		open += millis(s.dur())

		var res, resView, res1 *parallel.Result
		sp := lr.rec.timeCall("parallel.solve", 0, func() { res = parallel.Components(g, parallel.Options{}) })
		sv := lr.rec.timeCall("parallel.solve_view", 0, func() { resView = parallel.ComponentsView(mg, parallel.Options{}) })
		s1 := lr.rec.timeCall("parallel.solve_workers1", 0, func() { res1 = parallel.Components(g, parallel.Options{Workers: 1}) })
		mapping.Unmap()
		for _, r := range []*parallel.Result{res, resView, res1} {
			lr.t.check(checkLabels(f.g, r.Labels))
		}
		solve += seconds(sp.dur())
		solveView += seconds(sv.dur())
		solve1 += seconds(s1.dur())
		lr.set("parallel.skip_ratio."+name, float64(res.Stats.SkippedVertices)/float64(f.g.N()))
	}
	lr.set("graph.parse_edges_per_s", edges/parse)
	lr.set("graph.wccb1_decode_ms", decode)
	lr.set("graph.wccm1_open_ms", open)
	lr.set("graph.wccb1_bytes_per_edge", b1/edges)
	lr.set("graph.wccm1_bytes_per_edge", m1/edges)
	lr.set("parallel.solve_edges_per_s", edges/solve)
	lr.set("parallel.solve_mapped_edges_per_s", edges/solveView)
	lr.set("parallel.worker_speedup", solve1/solve)
	return nil
}

func writeMappedFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteMapped(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sameGraph checks that a decoded graph has the edge list of the original.
func sameGraph(want, got *graph.Graph) error {
	if store.DigestGraph(want) != store.DigestGraph(got) {
		return fmt.Errorf("decoded graph (n=%d m=%d) differs from the encoded one (n=%d m=%d)", got.N(), got.M(), want.N(), want.M())
	}
	return nil
}

func baseVersion(g *graph.Graph, name string) (store.Meta, store.Version) {
	digest := store.DigestGraph(g)
	_, count := graph.Components(g)
	return store.Meta{ID: "g-" + digest[:12], Name: name, Digest: digest, N: g.N(), M: g.M()},
		store.Version{Digest: digest, N: g.N(), M: g.M(), Components: count}
}

// store times Disk.Put of the cold families, Disk reopening, and a replay
// of the append stream through Disk.Append with the dynamic layer beside it.
func (lr *layerRun) store(fams map[string]*family) error {
	dir, err := lr.env.tempDir("store")
	if err != nil {
		return err
	}
	cfg := store.Config{FS: newTimingFS(lr.rec, "fs.store")}
	d, err := store.Open(dir, cfg)
	if err != nil {
		return err
	}
	var put float64
	for _, name := range coldFamilies {
		meta, v0 := baseVersion(fams[name].g, name)
		s := lr.rec.timeCall("store.put", 0, func() { _, err = d.Put(meta, fams[name].g, v0) })
		if err != nil {
			return err
		}
		put += millis(s.dur())
	}
	if err := d.Close(); err != nil {
		return err
	}
	s := lr.rec.timeCall("store.open", 0, func() { d, err = store.Open(dir, cfg) })
	if err != nil {
		return err
	}
	if d.Len() != len(coldFamilies) {
		lr.t.check(fmt.Errorf("reopened store holds %d graphs, want %d", d.Len(), len(coldFamilies)))
	}
	if err := d.Close(); err != nil {
		return err
	}
	lr.set("store.put_ms", put)
	lr.set("store.open_ms", millis(s.dur()))
	return lr.appendReplay()
}

// appendReplay pushes the append-replicate stream through store.Disk, the
// dynamic engine and dynamic.MergeLabels directly.
func (lr *layerRun) appendReplay() error {
	base, batches, err := appendTrace(lr.seed, warmAppends+layerAppends, lr.w.intraFrac)
	if err != nil {
		return err
	}
	dir, err := lr.env.tempDir("store-append")
	if err != nil {
		return err
	}
	d, err := store.Open(dir, store.Config{FS: fault.OS{}})
	if err != nil {
		return err
	}
	meta, prev := baseVersion(base, "append-base")
	if _, err := d.Put(meta, base, prev); err != nil {
		d.Close()
		return err
	}
	eng := dynamic.FromGraph(base)
	labels, count := graph.Components(base)
	appendLat := samples{unit: time.Microsecond}
	applyLat := samples{unit: time.Microsecond}
	mergeLat := samples{unit: time.Millisecond}
	for i, batch := range batches {
		var merges int
		sa := lr.rec.timeCall("dynamic.apply", 0, func() { merges = eng.Apply(batch, 0) })
		sm := lr.rec.timeCall("dynamic.merge_labels", 0, func() {
			labels, count, err = dynamic.MergeLabels(labels, count, batch, base.N())
		})
		if err != nil {
			d.Close()
			return err
		}
		info := store.Version{
			Version: i + 1, Digest: store.ChainDigest(prev.Digest, base.N(), batch),
			N: base.N(), M: prev.M + len(batch), Appended: len(batch), Merges: merges, Components: eng.Components(),
		}
		s := lr.rec.timeCall("store.append", 0, func() { err = d.Append(meta.ID, batch, info) })
		if err != nil {
			d.Close()
			return err
		}
		prev = info
		if i >= warmAppends {
			appendLat.add(s.dur())
			applyLat.add(sa.dur())
			mergeLat.add(sm.dur())
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	if count != eng.Components() {
		lr.t.check(fmt.Errorf("MergeLabels reached %d components, the engine %d", count, eng.Components()))
	}
	lr.t.check(checkFinalComponents(base.N(), base, batches, count))
	lr.set("store.append_p50_us", appendLat.pct(50))
	lr.set("store.append_p95_ms", appendLat.pct(95)/1000)
	lr.set("dynamic.apply_us", applyLat.pct(50))
	lr.set("dynamic.merge_labels_ms", mergeLat.pct(50))
	return nil
}

// inproc is a service served on a loopback listener inside this process.
type inproc struct {
	svc *service.Service
	srv *http.Server
	url string
}

// serve opens a service and serves the handler that handler builds for it.
func (lr *layerRun) serve(cfg service.Config, handler func(*service.Service) http.Handler) (*inproc, error) {
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	srv, url, err := listen(handler(svc))
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &inproc{svc: svc, srv: srv, url: url}, nil
}

func (p *inproc) close() {
	p.srv.Close()
	p.svc.Close()
}

// listen serves h on a new loopback listener.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// tracedClient sends requests carrying a client span and a request ID, so
// the handler span can be paired with the client's view of the request.
// With a nil recorder it sends the same requests untraced.
type tracedClient struct {
	rec *recorder
	hc  *http.Client
	buf bytes.Buffer
}

func newTracedClient(rec *recorder) *tracedClient {
	return &tracedClient{rec: rec, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do sends one request and returns the client span (zero when untraced)
// and the response body, valid until the next call.
func (c *tracedClient) do(name, method, url string, body []byte) (span, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return span{}, nil, err
	}
	var s span
	if c.rec != nil {
		s = c.rec.start(name, 0, c.rec.reqs.Add(1))
		req.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
		req.Header.Set(hdrReq, strconv.FormatUint(s.Req, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return span{}, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.rec != nil {
		s = c.rec.finish(s)
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return s, c.buf.Bytes(), err
}

// service times the load, solve and query handlers of an in-process
// service, Service.Lookup, and the recorder's own overhead.
func (lr *layerRun) service(fams map[string]*family) error {
	dir, err := lr.env.tempDir("service")
	if err != nil {
		return err
	}
	p, err := lr.serve(service.Config{DataDir: dir, Logf: func(string, ...any) {}}, func(svc *service.Service) http.Handler {
		return traceHandler(lr.rec, service.NewHandler(svc))
	})
	if err != nil {
		return err
	}
	defer p.close()
	c := newTracedClient(lr.rec)
	ids := make(map[string]string)
	for _, name := range coldFamilies {
		_, body, err := c.do("client.load", "POST", p.url+"/v1/graphs?name="+name, fams[name].text)
		if err != nil {
			return err
		}
		var g graphInfo
		if err := json.Unmarshal(body, &g); err != nil {
			return err
		}
		ids[name] = g.ID
		req, _ := json.Marshal(map[string]any{"graph": g.ID, "algo": "parallel", "wait": true})
		if _, _, err := c.do("client.solve", "POST", p.url+"/v1/solve", req); err != nil {
			return err
		}
	}
	lr.set("service.load_handler_ms", millis(sumDur(lr.rec.named("service.load"))))
	lr.set("service.solve_handler_ms", millis(sumDur(lr.rec.named("service.solve"))))

	f := fams[lr.w.queryOn]
	id := ids[f.name]
	before := p.svc.Counters()
	ps := pairs(f.g.N(), 1<<16, subSeed(lr.seed, "pairs"))
	query := func(c *tracedClient, base string, i int) error {
		pr := ps[i&(len(ps)-1)]
		url := base + "/v1/query/same-component?graph=" + id + "&u=" + strconv.Itoa(int(pr[0])) + "&v=" + strconv.Itoa(int(pr[1]))
		_, body, err := c.do("client.query", "GET", url, nil)
		if err != nil {
			lr.t.fail(err)
			return err
		}
		lr.t.check(checkSame(f.labels, pr[0], pr[1], bytes.Contains(body, []byte(`"same":true`))))
		return nil
	}
	// The untraced path is the same service behind the plain handler, asked
	// by a client that sends no span headers and records nothing.
	plain, plainURL, err := listen(service.NewHandler(p.svc))
	if err != nil {
		return err
	}
	defer plain.Close()
	traced, untraced := newTracedClient(lr.rec), newTracedClient(nil)
	// Alternate traced and untraced windows; the ratio of their request
	// rates is what tracing costs the read path.
	var on, off float64
	for k := 0; k < 8; k++ {
		c, base := traced, p.url
		if k%2 == 1 {
			c, base = untraced, plainURL
		}
		n, d := loop(lr.ctx, layerQueryTime/8, func(i int) error { return query(c, base, i) })
		if k%2 == 0 {
			on += float64(n) / seconds(d)
		} else {
			off += float64(n) / seconds(d)
		}
	}
	after := p.svc.Counters()
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	lr.set("service.cache_hit_ratio", float64(hits)/float64(hits+misses))
	lr.set("trace.overhead_ratio", off/on)

	handlers := lr.rec.named("service.query")
	clientSpans := make(map[int64]span)
	for _, s := range lr.rec.named("client.query") {
		clientSpans[s.ID] = s
	}
	hlat, overhead := samples{unit: time.Microsecond}, samples{unit: time.Microsecond}
	for _, h := range handlers {
		hlat.add(h.dur())
		if cs, ok := clientSpans[h.Parent]; ok {
			overhead.add(cs.dur() - h.dur())
		}
	}
	lr.set("service.query_handler_us", hlat.pct(50))
	lr.set("service.http_overhead_us", overhead.pct(50))

	spec := service.SolveSpec{GraphID: id, Version: -1, Algo: "parallel"}
	var ns []float64
	var allocs float64
	for rep := 0; rep < 3; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < layerLookups; i++ {
			if _, hit, err := p.svc.Lookup(spec); err != nil || !hit {
				lr.t.check(fmt.Errorf("lookup of a solved graph: hit=%v err=%v", hit, err))
				return err
			}
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/layerLookups)
		allocs = float64(m1.Mallocs-m0.Mallocs) / layerLookups
	}
	lr.t.ok()
	lr.set("service.lookup_ns", median(ns))
	lr.set("service.lookup_allocs", allocs)
	return nil
}

func sumDur(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// appendPath replays append-replicate in-process: a primary and a replica
// service joined by the replication feed, each on a timing filesystem.
func (lr *layerRun) appendPath() error {
	base, batches, err := appendTrace(lr.seed, warmAppends+layerAppends, lr.w.intraFrac)
	if err != nil {
		return err
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, base); err != nil {
		return err
	}
	pdir, err := lr.env.tempDir("inproc-primary")
	if err != nil {
		return err
	}
	rdir, err := lr.env.tempDir("inproc-replica")
	if err != nil {
		return err
	}
	quiet := func(string, ...any) {}
	pfs, rfs := newTimingFS(lr.rec, "fs.primary"), newTimingFS(lr.rec, "fs.replica")
	p, err := lr.serve(service.Config{DataDir: pdir, FS: pfs, Logf: quiet}, func(svc *service.Service) http.Handler {
		return repl.NewPrimary(svc, repl.Options{Logf: quiet}).Handler(traceHandler(lr.rec, service.NewHandler(svc)))
	})
	if err != nil {
		return err
	}
	defer p.close()
	rsvc, err := service.Open(service.Config{DataDir: rdir, FS: rfs, ReplicaOf: p.url, Logf: quiet})
	if err != nil {
		return err
	}
	defer rsvc.Close()
	replica, err := repl.Start(rsvc, p.url, repl.Options{Logf: quiet})
	if err != nil {
		return err
	}
	defer replica.Close()

	c := newTracedClient(lr.rec)
	_, body, err := c.do("client.load", "POST", p.url+"/v1/graphs?name=append-base", text.Bytes())
	if err != nil {
		return err
	}
	var g graphInfo
	if err := json.Unmarshal(body, &g); err != nil {
		return err
	}
	for _, name := range []string{"parallel", "dynamic", "labelprop"} {
		req, _ := json.Marshal(map[string]any{"graph": g.ID, "algo": name, "wait": true})
		if _, _, err := c.do("client.solve", "POST", p.url+"/v1/solve", req); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := rsvc.Graph(g.ID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not bootstrap graph %s within 30s", g.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := rsvc.Solve(service.SolveSpec{GraphID: g.ID, Version: -1, Algo: "parallel"}); err != nil {
		return err
	}

	// The replica watcher notes when each version becomes visible there.
	seen := make(map[int]int64)
	var seenMu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			pulse := rsvc.AppendPulse()
			if sg, err := rsvc.Graph(g.ID); err == nil {
				v := sg.LatestVersion()
				now := lr.rec.now()
				seenMu.Lock()
				for ; last < v; last++ {
					seen[last+1] = now
				}
				seenMu.Unlock()
			}
			select {
			case <-pulse:
			case <-stop:
				return
			}
		}
	}()

	ackAt := make(map[int]span) // version -> append handler span
	var counters [2]service.Counters
	for i, batch := range batches {
		if i == warmAppends {
			pfs.reset()
			rfs.reset()
			counters[0] = p.svc.Counters()
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeBatch(&buf, batch); err != nil {
			return err
		}
		cs, body, err := c.do("client.append", "POST", p.url+"/v1/graphs/"+g.ID+"/edges", buf.Bytes())
		if err != nil {
			lr.t.fail(err)
			return err
		}
		var v graphInfo
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		lr.t.check(expectVersion(v, i+1))
		if i >= warmAppends {
			ackAt[v.Version] = cs
		}
	}
	counters[1] = p.svc.Counters()
	deadline = time.Now().Add(30 * time.Second)
	for {
		seenMu.Lock()
		_, done := seen[len(batches)]
		seenMu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach version %d within 30s", len(batches))
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	psg, err := p.svc.Graph(g.ID)
	if err != nil {
		return err
	}
	rsg, err := rsvc.Graph(g.ID)
	if err != nil {
		return err
	}
	pv, rv := psg.Latest(), rsg.Latest()
	lr.t.check(checkReplica(graphInfo{Version: pv.Version, Digest: pv.Digest}, graphInfo{Version: rv.Version, Digest: rv.Digest}))
	lr.t.check(checkFinalComponents(base.N(), base, batches, pv.Components))

	// Append handler self time: the handler span minus the primary's
	// filesystem calls it covers.
	lr.rec.adopt("fs.primary.", "service.append")
	handlerBy := make(map[int64]span)
	for _, h := range lr.rec.named("service.append") {
		handlerBy[h.Parent] = h
	}
	self := selfTimes(lr.rec.all())
	selfLat := samples{unit: time.Millisecond}
	lag := samples{unit: time.Millisecond}
	for v, cs := range ackAt {
		h, ok := handlerBy[cs.ID]
		if !ok {
			continue
		}
		selfLat.add(self[h.ID])
		at := seen[v]
		d := time.Duration(at - h.End)
		if d < 0 {
			d = 0 // visible on the replica before the primary's handler returned
		}
		lag.add(d)
		lr.rec.add(span{ID: lr.rec.ids.Add(1), Parent: h.ID, Req: h.Req, Name: "repl.apply", Start: h.End, End: h.End + int64(d)})
	}
	lr.set("service.append_self_ms", selfLat.pct(50))
	lr.set("repl.apply_lag_p50_ms", lag.pct(50))
	appends := float64(counters[1].EdgeBatches - counters[0].EdgeBatches)
	lr.set("service.merges_per_append", float64(counters[1].IncrementalMerges-counters[0].IncrementalMerges)/appends)

	var recordBytes float64
	for i := warmAppends; i < len(batches); i++ {
		rec, err := store.EncodeRecord(store.Version{}, batches[i])
		if err != nil {
			return err
		}
		recordBytes += float64(len(rec))
	}
	pst, rst := pfs.stats(), rfs.stats()
	var written float64
	for _, b := range pst.bytes {
		written += float64(b)
	}
	walSync := durSamples(pst.syncs["wal"], time.Microsecond)
	lr.set("store.fsync_p50_us", walSync.pct(50))
	syncs := 0
	for _, xs := range pst.syncs {
		syncs += len(xs)
	}
	lr.set("store.syncs_per_append", float64(syncs)/appends)
	lr.set("store.write_amplification", written/recordBytes)
	lr.set("store.compactions_per_append", float64(len(pst.compactions))/appends)
	comp := durSamples(pst.compactions, time.Millisecond)
	if len(comp.xs) == 0 {
		comp.xs = []float64{0}
	}
	lr.set("store.compaction_ms", comp.pct(50))
	rsync := durSamples(rst.syncs["wal"], time.Microsecond)
	lr.set("repl.replica_fsync_p50_us", rsync.pct(50))

	rr := httptest.NewRecorder()
	service.NewHandler(rsvc).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil).WithContext(context.Background()))
	var st struct {
		Repl service.ReplStatus `json:"repl"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		return fmt.Errorf("replica stats: %w", err)
	}
	checked := st.Repl.Verified + st.Repl.Rejected
	if checked == 0 {
		return fmt.Errorf("replica stats report no verified records: %s", rr.Body.String())
	}
	lr.set("repl.rejected_ratio", float64(st.Repl.Rejected)/float64(checked))
	lr.set("repl.reconnects", float64(st.Repl.Reconnects))
	lr.details["append-path"] = map[string]any{"primary_bytes": pst.bytes, "record_bytes": recordBytes, "repl": st.Repl}
	return nil
}

func durSamples(ds []time.Duration, unit time.Duration) samples {
	s := samples{unit: unit}
	for _, d := range ds {
		s.add(d)
	}
	return s
}

// core runs the paper pipeline on the mpc-reference input with every core
// and with one worker, and reads its round and message accounting.
func (lr *layerRun) core() error {
	f, err := newFamily("mpc", mpcSeed, false)
	if err != nil {
		return err
	}
	opts := algo.Options{Lambda: mpcLambda, Seed: subSeed(mpcSeed, "mpc-solve"), Workers: -1}
	var all, one *algo.Result
	sAll := lr.rec.timeCall("core.solve", 0, func() { all, err = algo.Find("wcc", f.g, opts) })
	if err != nil {
		return err
	}
	opts.Workers = 1
	sOne := lr.rec.timeCall("core.solve_workers1", 0, func() { one, err = algo.Find("wcc", f.g, opts) })
	if err != nil {
		return err
	}
	for _, r := range []*algo.Result{all, one} {
		lr.t.check(checkLabels(f.g, r.Labels))
	}
	lr.t.check(checkRoundsRepeat([]int{all.Rounds, one.Rounds}))
	st := all.Core
	lr.set("core.rounds.regularize", float64(st.Steps.Regularize))
	lr.set("core.rounds.randomize", float64(st.Steps.Randomize))
	lr.set("core.rounds.grow", float64(st.Steps.Grow))
	lr.set("core.rounds.finish", float64(st.Steps.Finish))
	lr.set("mpc.total_messages", float64(st.TotalMessages))
	lr.set("mpc.max_machine_load", float64(st.MaxMachineLoad))
	lr.set("core.solve_edges_per_s", float64(f.g.M())/seconds(sAll.dur()))
	lr.set("core.worker_speedup", seconds(sOne.dur())/seconds(sAll.dur()))
	return nil
}
