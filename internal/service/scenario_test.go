package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestScenarioConcurrentAppendsMatchFullSolve is the end-to-end dynamic
// exercise over real HTTP: load a graph, solve it, then fire 50 append
// batches from concurrent writers while readers hammer the query
// endpoints. Afterwards the incrementally maintained labeling of the
// final version must equal a from-scratch registry solve of the final
// graph, canonical form to canonical form. Run with -race (make race
// covers internal/service).
func TestScenarioConcurrentAppendsMatchFullSolve(t *testing.T) {
	s := New(Config{MaxVersionGap: 128})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	client := srv.Client()

	// Base: two expander components, 80 vertices total.
	base, batches, err := gen.TraceSpec{
		Base:      gen.Spec{Family: "union", Sizes: []int{48, 32}, D: 6, Seed: 21},
		Batches:   50,
		BatchSize: 12,
		IntraFrac: 0.5,
		Seed:      33,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var baseText bytes.Buffer
	if err := graph.WriteEdgeList(&baseText, base); err != nil {
		t.Fatal(err)
	}
	var g struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	postBody(t, client, srv.URL+"/v1/graphs?name=scenario", baseText.String(), http.StatusOK, &g)

	solveBody := fmt.Sprintf(`{"graph":%q,"algo":"hashtomin","wait":true}`, g.ID)
	postBody(t, client, srv.URL+"/v1/solve", solveBody, http.StatusOK, nil)

	// 50 batches over 8 concurrent writers; readers run until the writers
	// finish. Queries may observe any interleaving of versions — the
	// invariant is that they never error with anything but 409/404-free
	// success, and never report a component count below the final one
	// (counts only decrease as edges arrive, and never below fully
	// merged).
	var wg sync.WaitGroup
	batchCh := make(chan []graph.Edge)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range batchCh {
				var buf bytes.Buffer
				if err := graph.WriteEdgeBatch(&buf, batch); err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Post(srv.URL+"/v1/graphs/"+g.ID+"/edges", "text/plain", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("append: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := rng.IntN(g.N), rng.IntN(g.N)
				url := fmt.Sprintf("%s/v1/query/same-component?graph=%s&algo=hashtomin&u=%d&v=%d",
					srv.URL, g.ID, u, v)
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 409 would mean an append invalidated the labeling instead
				// of fast-forwarding it.
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during churn: %d", resp.StatusCode)
					return
				}
			}
		}(uint64(r))
	}

	for _, batch := range batches {
		batchCh <- batch
	}
	close(batchCh)
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// All 50 batches landed (writers serialize per graph, so the final
	// version is exact).
	var vers struct {
		Latest   int `json:"latest"`
		Versions []struct {
			Version int `json:"version"`
			M       int `json:"m"`
		} `json:"versions"`
	}
	getJSON(t, client, srv.URL+"/v1/graphs/"+g.ID+"/versions", &vers)
	if vers.Latest != 50 {
		t.Fatalf("latest version = %d, want 50", vers.Latest)
	}

	// The incrementally maintained labeling must match a fresh full solve
	// of the final graph exactly (canonical forms bit-identical).
	sg, err := s.Graph(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := materialize(t, sg, sg.LatestVersion())
	wantM := base.M() + 50*12
	if final.M() != wantM {
		t.Fatalf("final graph has %d edges, want %d", final.M(), wantM)
	}
	incr, ok, err := s.Lookup(SolveSpec{GraphID: g.ID, Version: -1, Algo: "hashtomin"})
	if err != nil || !ok {
		t.Fatalf("final labeling not available: %v %v", err, ok)
	}
	res, err := algo.Find("wcc", final, algo.Options{Seed: 7, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if incr.Components != res.Components {
		t.Fatalf("incremental components = %d, full solve = %d", incr.Components, res.Components)
	}
	gotCanon := algo.CanonicalForm(incr.labels)
	wantCanon := algo.CanonicalForm(res.Labels)
	for v := range wantCanon {
		if gotCanon[v] != wantCanon[v] {
			t.Fatalf("labelings diverge at vertex %d: %d vs %d", v, gotCanon[v], wantCanon[v])
		}
	}
	// Not a single re-solve happened during the churn.
	if c := s.Counters(); c.Solves != 1 || c.EdgeBatches != 50 {
		t.Fatalf("counters after churn: %+v", c)
	}
}

// TestScenarioConcurrentBatchSingleAppend is the sharded-cache stress
// ISSUE 5 asks for: batch queries, single queries, and appends all in
// flight at once, at the service level so the race detector sees the
// cache/window/handle internals directly (make race covers this
// package). Correctness check at the end: the incrementally maintained
// labeling equals a fresh solve of the final graph.
func TestScenarioConcurrentBatchSingleAppend(t *testing.T) {
	s := New(Config{MaxVersionGap: 256, CacheEntries: 32})
	defer s.Close()

	base, batches, err := gen.TraceSpec{
		Base:      gen.Spec{Family: "union", Sizes: []int{40, 24, 16}, D: 6, Seed: 9},
		Batches:   40,
		BatchSize: 6,
		IntraFrac: 0.5,
		Seed:      17,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var baseText bytes.Buffer
	if err := graph.WriteEdgeList(&baseText, base); err != nil {
		t.Fatal(err)
	}
	sg, err := s.Load("churn", &baseText)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{GraphID: sg.ID, Version: -1, Algo: "hashtomin"}
	if _, err := s.Solve(spec); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed uint64) { // single queries
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := graph.Vertex(rng.IntN(base.N())), graph.Vertex(rng.IntN(base.N()))
				if _, err := s.SameComponent(spec, u, v); err != nil {
					t.Errorf("single query during churn: %v", err)
					return
				}
				if _, err := s.ComponentCount(spec); err != nil {
					t.Errorf("count query during churn: %v", err)
					return
				}
			}
		}(uint64(r))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed uint64) { // batch queries
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, 2))
			qs := make([]BatchQuery, 16)
			out := make([]BatchResult, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range qs {
					switch i % 3 {
					case 0:
						qs[i] = BatchQuery{Op: OpSameComponent, U: graph.Vertex(rng.IntN(base.N())), V: graph.Vertex(rng.IntN(base.N()))}
					case 1:
						qs[i] = BatchQuery{Op: OpComponentSize, U: graph.Vertex(rng.IntN(base.N()))}
					default:
						qs[i] = BatchQuery{Op: OpComponentCount}
					}
				}
				if _, err := s.Query(spec, qs, out); err != nil {
					t.Errorf("batch query during churn: %v", err)
					return
				}
				for i := range out {
					if out[i].Err != "" {
						t.Errorf("batch item %d failed: %s", i, out[i].Err)
						return
					}
				}
			}
		}(uint64(r))
	}

	var writers sync.WaitGroup
	batchCh := make(chan []graph.Edge)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for batch := range batchCh {
				if _, err := s.Append(sg.ID, batch, false); err != nil {
					t.Errorf("append during churn: %v", err)
					return
				}
			}
		}()
	}
	for _, batch := range batches {
		batchCh <- batch
	}
	close(batchCh)
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := sg.LatestVersion(); got != len(batches) {
		t.Fatalf("latest version %d, want %d", got, len(batches))
	}
	final := materialize(t, sg, sg.LatestVersion())
	incr, ok, err := s.Lookup(spec)
	if err != nil || !ok {
		t.Fatalf("final labeling not available: %v %v", err, ok)
	}
	res, err := algo.Find("wcc", final, algo.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if incr.Components != res.Components {
		t.Fatalf("incremental components = %d, full solve = %d", incr.Components, res.Components)
	}
	gotCanon := algo.CanonicalForm(incr.labels)
	wantCanon := algo.CanonicalForm(res.Labels)
	for v := range wantCanon {
		if gotCanon[v] != wantCanon[v] {
			t.Fatalf("labelings diverge at vertex %d: %d vs %d", v, gotCanon[v], wantCanon[v])
		}
	}
	if c := s.Counters(); c.Solves != 1 || c.BatchQueries == 0 {
		t.Fatalf("counters after churn: %+v", c)
	}
}

func postBody(t *testing.T, client *http.Client, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
}

func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}
