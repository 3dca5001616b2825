package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// httpJSON drives one request against the test server and decodes the
// JSON response into out.
func httpJSON(t *testing.T, client *http.Client, method, url, body string, wantStatus int, out any) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d\nbody: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

// TestHTTPEndToEnd is the acceptance scenario: load a graph once, solve it
// once, and answer same-component / component-size / component-count
// queries from the labeling cache without re-running the algorithm.
func TestHTTPEndToEnd(t *testing.T) {
	svc := New(Config{JobWorkers: 2, CacheEntries: 16})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	var health struct {
		OK bool `json:"ok"`
	}
	httpJSON(t, client, "GET", srv.URL+"/healthz", "", http.StatusOK, &health)
	if !health.OK {
		t.Fatal("healthz not ok")
	}

	// Load: the two-component edge list, once.
	var g struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
		N, M   int
	}
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs?name=two", twoComponents, http.StatusOK, &g)
	if g.N != 10 || g.M != 9 || !strings.HasPrefix(g.ID, "g-") {
		t.Fatalf("load response: %+v", g)
	}

	// Query before solving: 409, the labeling is not cached yet.
	qbase := fmt.Sprintf("%s/v1/query/same-component?graph=%s&algo=wcc&seed=1&lambda=0.3&u=0&v=5", srv.URL, g.ID)
	httpJSON(t, client, "GET", qbase, "", http.StatusConflict, nil)

	// Solve synchronously (wait=true), once.
	var solved struct {
		Components int  `json:"components"`
		Rounds     int  `json:"rounds"`
		Cached     bool `json:"cached"`
	}
	solveBody := fmt.Sprintf(`{"graph":%q,"algo":"wcc","seed":1,"lambda":0.3,"wait":true}`, g.ID)
	httpJSON(t, client, "POST", srv.URL+"/v1/solve", solveBody, http.StatusOK, &solved)
	if solved.Components != 2 || solved.Cached {
		t.Fatalf("solve response: %+v", solved)
	}

	// Queries now answer from the cache.
	var same struct {
		Same bool `json:"same"`
	}
	httpJSON(t, client, "GET", qbase, "", http.StatusOK, &same)
	if !same.Same {
		t.Error("0 and 5 share the cycle component")
	}
	httpJSON(t, client, "GET",
		fmt.Sprintf("%s/v1/query/same-component?graph=%s&algo=wcc&seed=1&lambda=0.3&u=0&v=9", srv.URL, g.ID),
		"", http.StatusOK, &same)
	if same.Same {
		t.Error("0 and 9 are in different components")
	}
	var size struct {
		Size int `json:"size"`
	}
	httpJSON(t, client, "GET",
		fmt.Sprintf("%s/v1/query/component-size?graph=%s&algo=wcc&seed=1&lambda=0.3&u=7", srv.URL, g.ID),
		"", http.StatusOK, &size)
	if size.Size != 4 {
		t.Errorf("component-size(7) = %d, want 4", size.Size)
	}
	var count struct {
		Components int `json:"components"`
	}
	httpJSON(t, client, "GET",
		fmt.Sprintf("%s/v1/query/component-count?graph=%s&algo=wcc&seed=1&lambda=0.3", srv.URL, g.ID),
		"", http.StatusOK, &count)
	if count.Components != 2 {
		t.Errorf("component-count = %d, want 2", count.Components)
	}

	// Re-solving the same configuration hits the cache: still one
	// algorithm execution in the stats.
	httpJSON(t, client, "POST", srv.URL+"/v1/solve", solveBody, http.StatusOK, &solved)
	if !solved.Cached {
		t.Fatal("repeat solve should report cached=true")
	}
	var stats struct {
		Solves    int64 `json:"solves"`
		CacheHits int64 `json:"cacheHits"`
		Graphs    int   `json:"graphs"`
	}
	httpJSON(t, client, "GET", srv.URL+"/v1/stats", "", http.StatusOK, &stats)
	if stats.Solves != 1 {
		t.Fatalf("stats.solves = %d after one load + one solve + queries, want 1", stats.Solves)
	}
	if stats.CacheHits == 0 || stats.Graphs != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestHTTPQueryBatch covers POST /v1/query/batch: mixed ops answered
// against one labeling lookup, per-item errors inline, batch-level
// errors (unsolved, malformed, empty) as request failures.
func TestHTTPQueryBatch(t *testing.T) {
	svc := New(Config{JobWorkers: 1, CacheEntries: 16})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	var g struct {
		ID string `json:"id"`
	}
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs?name=two", twoComponents, http.StatusOK, &g)

	batchURL := srv.URL + "/v1/query/batch"
	mkBody := func(extra string) string {
		return fmt.Sprintf(`{"graph":%q,"algo":"boruvka","queries":[%s]}`, g.ID, extra)
	}

	// Before solving: the whole batch 409s.
	httpJSON(t, client, "POST", batchURL, mkBody(`{"op":"component-count"}`), http.StatusConflict, nil)

	httpJSON(t, client, "POST", srv.URL+"/v1/solve",
		fmt.Sprintf(`{"graph":%q,"algo":"boruvka","wait":true}`, g.ID), http.StatusOK, nil)

	var resp struct {
		Graph   string `json:"graph"`
		Version int    `json:"version"`
		Count   int    `json:"count"`
		Results []struct {
			Same       *bool  `json:"same"`
			Size       *int   `json:"size"`
			Components *int   `json:"components"`
			Err        string `json:"error"`
		} `json:"results"`
	}
	body := mkBody(`{"op":"same-component","u":0,"v":5},` +
		`{"op":"same-component","u":0,"v":9},` +
		`{"op":"component-size","u":7},` +
		`{"op":"component-count"},` +
		`{"op":"component-size","u":99},` +
		`{"op":"bogus"}`)
	httpJSON(t, client, "POST", batchURL, body, http.StatusOK, &resp)
	if resp.Graph != g.ID || resp.Count != 6 || len(resp.Results) != 6 {
		t.Fatalf("batch response envelope: %+v", resp)
	}
	r := resp.Results
	if r[0].Same == nil || !*r[0].Same {
		t.Errorf("same(0,5) = %+v, want true", r[0])
	}
	if r[1].Same == nil || *r[1].Same {
		t.Errorf("same(0,9) = %+v, want false", r[1])
	}
	if r[2].Size == nil || *r[2].Size != 4 {
		t.Errorf("size(7) = %+v, want 4", r[2])
	}
	if r[3].Components == nil || *r[3].Components != 2 {
		t.Errorf("count = %+v, want 2", r[3])
	}
	if r[4].Err == "" || r[5].Err == "" {
		t.Errorf("out-of-range vertex and unknown op must fail per item: %+v %+v", r[4], r[5])
	}

	// One request, one cache hit, six queries — the amortization the
	// endpoint exists for.
	if c := svc.Counters(); c.BatchQueries != 2 || c.Queries < 7 {
		t.Fatalf("batch counters: %+v", c)
	}

	// Batch-level failures.
	httpJSON(t, client, "POST", batchURL, mkBody(``), http.StatusBadRequest, nil)
	httpJSON(t, client, "POST", batchURL, `{not json`, http.StatusBadRequest, nil)
	httpJSON(t, client, "POST", batchURL,
		`{"graph":"g-nope","queries":[{"op":"component-count"}]}`, http.StatusNotFound, nil)
}

// TestHTTPStatsCacheVisibility checks the operator-facing cache stats:
// hit ratio and per-shard occupancy, sized by config, and the partitions
// block: two configurations solved at one version hold one partition.
func TestHTTPStatsCacheVisibility(t *testing.T) {
	svc := New(Config{JobWorkers: 1, CacheEntries: 8, CacheShards: 4})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	var g struct {
		ID string `json:"id"`
	}
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs?name=two", twoComponents, http.StatusOK, &g)
	for _, algo := range []string{"boruvka", "labelprop"} {
		httpJSON(t, client, "POST", srv.URL+"/v1/solve",
			fmt.Sprintf(`{"graph":%q,"algo":%q,"wait":true}`, g.ID, algo), http.StatusOK, nil)
	}
	for i := 0; i < 3; i++ {
		httpJSON(t, client, "GET",
			fmt.Sprintf("%s/v1/query/component-count?graph=%s&algo=boruvka", srv.URL, g.ID),
			"", http.StatusOK, nil)
	}

	var stats struct {
		CacheHitRatio float64 `json:"cacheHitRatio"`
		Cache         struct {
			Entries  int   `json:"entries"`
			Capacity int   `json:"capacity"`
			Shards   []int `json:"shards"`
		} `json:"cache"`
		Partitions struct {
			Distinct   int   `json:"distinct"`
			Bytes      int64 `json:"bytes"`
			Mismatches int64 `json:"mismatches"`
		} `json:"partitions"`
	}
	httpJSON(t, client, "GET", srv.URL+"/v1/stats", "", http.StatusOK, &stats)
	if stats.CacheHitRatio <= 0 || stats.CacheHitRatio > 1 {
		t.Errorf("cacheHitRatio = %v, want in (0,1]", stats.CacheHitRatio)
	}
	if stats.Cache.Capacity != 8 || len(stats.Cache.Shards) != 4 {
		t.Errorf("cache stats: %+v", stats.Cache)
	}
	sum := 0
	for _, occ := range stats.Cache.Shards {
		sum += occ
	}
	if sum != stats.Cache.Entries || stats.Cache.Entries != 2 {
		t.Errorf("shard occupancy %v must sum to entries %d (want 2)", stats.Cache.Shards, stats.Cache.Entries)
	}
	// 10 vertices of 4-byte labels plus 2 components of 8-byte sizes.
	if p := stats.Partitions; p.Distinct != 1 || p.Bytes != 10*4+2*8 || p.Mismatches != 0 {
		t.Errorf("partitions stats: %+v, want 1 distinct partition of 56 bytes", p)
	}
}

func TestHTTPGenerateAsyncJobAndErrors(t *testing.T) {
	svc := New(Config{JobWorkers: 1, CacheEntries: 16})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	// Generate a 2-expander union via the gen.Spec bridge.
	var g struct {
		ID string `json:"id"`
		N  int
	}
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs/generate",
		`{"family":"union","sizes":[24,16],"d":6,"seed":7}`, http.StatusOK, &g)
	if g.N != 40 {
		t.Fatalf("generated n = %d, want 40", g.N)
	}

	// Async solve: 202 with a job ID, then poll until done.
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Result *struct {
			Components int `json:"components"`
		} `json:"result"`
	}
	body := fmt.Sprintf(`{"graph":%q,"algo":"boruvka"}`, g.ID)
	httpJSON(t, client, "POST", srv.URL+"/v1/solve", body, http.StatusAccepted, &job)
	if job.ID == "" {
		t.Fatal("no job id")
	}
	deadline := 200
	for job.Status != "done" && job.Status != "failed" && deadline > 0 {
		httpJSON(t, client, "GET", srv.URL+"/v1/jobs/"+job.ID, "", http.StatusOK, &job)
		deadline--
	}
	if job.Status != "done" || job.Result == nil || job.Result.Components != 2 {
		t.Fatalf("job: %+v", job)
	}

	// Size histogram of the cached labeling.
	var sizes struct {
		Sizes []struct{ Size, Count int } `json:"sizes"`
	}
	httpJSON(t, client, "GET",
		fmt.Sprintf("%s/v1/query/sizes?graph=%s&algo=boruvka", srv.URL, g.ID),
		"", http.StatusOK, &sizes)
	if len(sizes.Sizes) != 2 || sizes.Sizes[0].Size != 16 || sizes.Sizes[1].Size != 24 {
		t.Fatalf("sizes: %+v", sizes)
	}

	// Error surfaces.
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs", "not a graph", http.StatusBadRequest, nil)
	httpJSON(t, client, "POST", srv.URL+"/v1/graphs/generate", `{"family":"nosuch"}`, http.StatusBadRequest, nil)
	httpJSON(t, client, "POST", srv.URL+"/v1/solve", `{"graph":"g-nope","algo":"wcc"}`, http.StatusNotFound, nil)
	httpJSON(t, client, "POST", srv.URL+"/v1/solve",
		fmt.Sprintf(`{"graph":%q,"algo":"nosuch"}`, g.ID), http.StatusBadRequest, nil)
	httpJSON(t, client, "GET", srv.URL+"/v1/jobs/job-999", "", http.StatusNotFound, nil)
	httpJSON(t, client, "GET", srv.URL+"/v1/graphs/g-nope", "", http.StatusNotFound, nil)
	httpJSON(t, client, "GET",
		fmt.Sprintf("%s/v1/query/component-size?graph=%s&algo=boruvka&u=99", srv.URL, g.ID),
		"", http.StatusBadRequest, nil)
	var algos struct {
		Algorithms []string `json:"algorithms"`
	}
	httpJSON(t, client, "GET", srv.URL+"/v1/algorithms", "", http.StatusOK, &algos)
	// Check for the built-in set by name, not count: other tests in this
	// package may register extra algorithms in the process-wide registry.
	have := make(map[string]bool, len(algos.Algorithms))
	for _, name := range algos.Algorithms {
		have[name] = true
	}
	for _, want := range []string{"boruvka", "dynamic", "exponentiate", "hashtomin", "labelprop", "sublinear", "wcc"} {
		if !have[want] {
			t.Fatalf("algorithms missing %q: %v", want, algos.Algorithms)
		}
	}
}
