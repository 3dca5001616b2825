package client_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/retry"
	"repro/internal/service"
)

// newServer starts a wccserve handler behind wrap (nil: none) and
// returns a client of it that retries up to twice.
func newServer(t *testing.T, wrap func(http.Handler) http.Handler) *client.Client {
	t.Helper()
	svc := service.New(service.Config{})
	t.Cleanup(func() { svc.Close() })
	h := service.NewHandler(svc)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return client.New(srv.URL+"/", srv.Client(), retry.New(3, time.Millisecond, time.Millisecond, 1))
}

func twoTriangles() *graph.Graph {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestRoundTripEveryMethod drives each method once against the real
// handler and checks the decoded values.
func TestRoundTripEveryMethod(t *testing.T) {
	c := newServer(t, nil)

	g, err := c.Load("tri", twoTriangles())
	if err != nil || g.N != 6 || g.M != 6 || g.Components != 2 || g.Name != "tri" || g.Digest == "" {
		t.Fatalf("Load = %+v, %v", g, err)
	}
	ring, err := c.Generate(service.GenerateRequest{Name: "ring", Spec: gen.Spec{Family: "cycle", N: 10}})
	if err != nil || ring.N != 10 || ring.M != 10 || ring.Name != "ring" {
		t.Fatalf("Generate = %+v, %v", ring, err)
	}
	if got, err := c.Graph(g.ID); err != nil || got != g {
		t.Fatalf("Graph = %+v, %v; want %+v", got, err, g)
	}
	l, err := c.Solve(g.ID, "hashtomin", -1)
	if err != nil || l.Components != 2 || l.Algo != "hashtomin" || l.Graph != g.ID || l.Cached {
		t.Fatalf("Solve = %+v, %v", l, err)
	}
	if same, err := c.SameComponent(g.ID, "hashtomin", 0, 3); err != nil || same {
		t.Fatalf("SameComponent(0,3) before the bridge = %v, %v", same, err)
	}

	res, err := c.Append(g.ID, []graph.Edge{{U: 2, V: 3}}, false)
	if err != nil || !res.Applied || res.Version != 1 || res.Components != 1 || res.Merges != 1 || res.Graph != g.ID {
		t.Fatalf("Append = %+v, %v", res, err)
	}
	if same, err := c.SameComponent(g.ID, "hashtomin", 0, 5); err != nil || !same {
		t.Fatalf("SameComponent(0,5) after the bridge = %v, %v", same, err)
	}
	// A pinned version solves the base, not the latest.
	if l, err := c.Solve(g.ID, "boruvka", 0); err != nil || l.Version != 0 || l.Components != 2 {
		t.Fatalf("Solve(version 0) = %+v, %v", l, err)
	}
	vl, err := c.Versions(g.ID)
	if err != nil || vl.Latest != 1 || len(vl.Versions) != 2 || vl.Versions[1].Digest != res.Digest {
		t.Fatalf("Versions = %+v, %v", vl, err)
	}

	if err := c.Get("/v1/query/component-count?graph=" + g.ID + "&algo=hashtomin"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	body := `{"graph":"` + g.ID + `","algo":"hashtomin","queries":[{"op":"same-component","u":0,"v":4}]}`
	if err := c.QueryBatch([]byte(body)); err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	st, err := c.Stats()
	if err != nil || st.Hits < 3 || st.HitRatio <= 0 || st.HitRatio > 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if c.Retries() != 0 {
		t.Errorf("Retries = %d against a healthy server", c.Retries())
	}

	// Read targets share the retry counter and name their own bases.
	readers, err := c.ReadTargets(" " + c.Base + "/ ,," + c.Base)
	if err != nil || len(readers) != 2 || readers[0].Base != c.Base || readers[0] == c {
		t.Fatalf("ReadTargets = %v, %v", readers, err)
	}
	if err := readers[1].SolveReplicated(g.ID, "labelprop"); err != nil {
		t.Fatalf("SolveReplicated: %v", err)
	}
	if only, err := c.ReadTargets(""); err != nil || len(only) != 1 || only[0] != c {
		t.Fatalf("ReadTargets(\"\") = %v, %v", only, err)
	}
	if _, err := c.ReadTargets(" , "); err == nil {
		t.Fatal("ReadTargets accepted a list with no URL")
	}
}

// TestRetryAfterIsHonoredAnd4xxIsNot: a 503 carrying Retry-After is
// retried no sooner than the header says, and a 404 is tried once.
func TestRetryAfterIsHonoredAnd4xxIsNot(t *testing.T) {
	var calls, shed atomic.Int64
	shed.Store(1)
	c := newServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if shed.Add(-1) >= 0 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "shedding", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	start := time.Now()
	if _, err := c.Generate(service.GenerateRequest{Spec: gen.Spec{Family: "path", N: 4}}); err != nil {
		t.Fatalf("Generate after one 503: %v", err)
	}
	// The policy's own delay is at most 1ms, so only the header explains
	// a wait of about a second.
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Errorf("retried after %v, before Retry-After: 1 elapsed", waited)
	}
	if calls.Load() != 2 || c.Retries() != 1 {
		t.Errorf("calls=%d retries=%d, want 2 and 1", calls.Load(), c.Retries())
	}

	calls.Store(0)
	if _, err := c.Graph("g-nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Graph(unknown) = %v, want a 404 error", err)
	}
	if calls.Load() != 1 || c.Retries() != 1 {
		t.Errorf("a 404 was retried: calls=%d retries=%d", calls.Load(), c.Retries())
	}
}

// TestAppendRetryAfterLostResponse: the server applies the first append
// and then drops the connection before the response goes out. The
// client retries; its If-Match names the parent version, so the retry
// finds the batch already landed and comes back applied=false. The
// graph gains exactly one version.
func TestAppendRetryAfterLostResponse(t *testing.T) {
	var dropped atomic.Bool
	c := newServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/edges") && dropped.CompareAndSwap(false, true) {
				h.ServeHTTP(httptest.NewRecorder(), r)
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	g, err := c.Load("lost", twoTriangles())
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Append(g.ID, []graph.Edge{{U: 2, V: 3}}, false)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !dropped.Load() || c.Retries() != 1 {
		t.Fatalf("the first response was not dropped and retried (retries=%d)", c.Retries())
	}
	if res.Applied || res.Version != 1 {
		t.Errorf("retried append = %+v, want version 1 with applied=false", res)
	}
	vl, err := c.Versions(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vl.Latest != 1 || len(vl.Versions) != 2 || vl.Versions[1].Appended != 1 {
		t.Fatalf("versions after one lost-response append: %+v", vl)
	}

	// The next append chains onto the version the retry reported.
	if res, err := c.Append(g.ID, []graph.Edge{{U: 0, V: 5}}, false); err != nil || !res.Applied || res.Version != 2 {
		t.Fatalf("follow-up Append = %+v, %v", res, err)
	}
}

// TestAppendConflictIsNotRetried: another writer's append moves the
// lineage past the version this client saw, so the conditional append
// fails with 412 once, instead of interleaving with the other writer.
func TestAppendConflictIsNotRetried(t *testing.T) {
	c := newServer(t, nil)
	other := client.New(c.Base, http.DefaultClient, retry.New(1, time.Millisecond, time.Millisecond, 1))
	g, err := c.Load("race", twoTriangles())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Append(g.ID, []graph.Edge{{U: 0, V: 3}}, false); err != nil {
		t.Fatalf("unconditional append by a client that saw no version: %v", err)
	}
	_, err = c.Append(g.ID, []graph.Edge{{U: 1, V: 4}}, false)
	if err == nil || !strings.Contains(err.Error(), "412") || c.Retries() != 0 {
		t.Fatalf("stale append = %v (retries %d), want one 412", err, c.Retries())
	}
	// Reading the graph again re-arms the precondition.
	if _, err := c.Graph(g.ID); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Append(g.ID, []graph.Edge{{U: 1, V: 4}}, false); err != nil || res.Version != 2 {
		t.Fatalf("append after re-read = %+v, %v", res, err)
	}
}

// TestConcurrentReadsShareOneClient exercises the client the way a
// wccload storm does, for the race detector: many goroutines, one
// client, one retry counter.
func TestConcurrentReadsShareOneClient(t *testing.T) {
	c := newServer(t, nil)
	g, err := c.Load("storm", twoTriangles())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(g.ID, "hashtomin", -1); err != nil {
		t.Fatal(err)
	}
	readers, err := c.ReadTargets(c.Base + "," + c.Base)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(rc *client.Client) {
			var body bytes.Buffer
			body.WriteString(`{"graph":"` + g.ID + `","algo":"hashtomin","queries":[{"op":"component-count"}]}`)
			err := rc.QueryBatch(body.Bytes())
			if err == nil {
				err = rc.Get("/v1/query/same-component?graph=" + g.ID + "&algo=hashtomin&u=0&v=1")
			}
			if err == nil {
				_, err = rc.Graph(g.ID)
			}
			errs <- err
		}(readers[w%2])
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestSolveReplicatedWaitsForTheGraph: a replica that does not know the
// graph yet answers 404, which Solve does not retry; SolveReplicated
// keeps asking until replication has delivered it.
func TestSolveReplicatedWaitsForTheGraph(t *testing.T) {
	var unknown atomic.Int64
	unknown.Store(2)
	c := newServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/solve" && unknown.Add(-1) >= 0 {
				http.Error(w, `{"error":"not replicated yet"}`, http.StatusNotFound)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	g, err := c.Load("late", twoTriangles())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SolveReplicated(g.ID, "hashtomin"); err != nil || unknown.Load() >= 0 {
		t.Fatalf("SolveReplicated = %v after %d refusals left", err, unknown.Load())
	}
	if c.Retries() != 0 {
		t.Errorf("the 404s went through the retry loop: %d retries", c.Retries())
	}
}
