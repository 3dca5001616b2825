package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
)

// These tests exercise the failure boundary end to end: admission
// control under a synthetic overload storm, panic containment, and the
// degraded (read-only) mode driven by injected storage faults. They are
// the service-level half of the chaos layer; the store-level half is
// internal/store's crash-point sweep.

func get(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// TestAdmissionOverload saturates a MaxInflight=4 / AdmissionQueue=4
// service with 16 concurrent requests and checks the storm resolves to
// exactly the documented outcome: 8 served, 8 shed with 429 +
// Retry-After, and never more than 4 handlers running at once.
func TestAdmissionOverload(t *testing.T) {
	s := New(Config{JobWorkers: 1, CacheEntries: 4,
		MaxInflight: 4, AdmissionQueue: 4, QueueWait: 5 * time.Second,
		Logf: t.Logf})
	t.Cleanup(s.Close)

	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var inflight, maxInflight atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			prev := maxInflight.Load()
			if cur <= prev || maxInflight.CompareAndSwap(prev, cur) {
				break
			}
		}
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(s.recoverPanics(s.admit(inner)))
	t.Cleanup(srv.Close)

	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, 16)
	fire := func(n int) {
		for i := 0; i < n; i++ {
			go func() {
				resp := get(t, srv.Client(), srv.URL)
				drainBody(t, resp)
				results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
			}()
		}
	}

	// Phase 1: fill every slot.
	fire(4)
	for i := 0; i < 4; i++ {
		<-started
	}
	// Phase 2: 12 more arrivals — 4 fit the wait queue, 8 must shed
	// immediately. Collect the 8 rejections while the slots stay held.
	fire(12)
	rejected := 0
	for rejected < 8 {
		res := <-results
		if res.status != http.StatusTooManyRequests {
			t.Fatalf("got status %d while saturated, want 429", res.status)
		}
		if res.retryAfter == "" {
			t.Fatal("429 response missing Retry-After header")
		}
		rejected++
	}
	// Phase 3: release — the 4 running and 4 queued requests all finish.
	close(release)
	for i := 0; i < 8; i++ {
		res := <-results
		if res.status != http.StatusOK {
			t.Fatalf("got status %d after release, want 200", res.status)
		}
	}
	if max := maxInflight.Load(); max > 4 {
		t.Fatalf("observed %d concurrent handlers, admission bound is 4", max)
	}
	if got := s.Counters().AdmissionRejected; got != 8 {
		t.Fatalf("AdmissionRejected = %d, want 8", got)
	}
}

// TestAdmissionHealthBypass verifies the probes answer while every
// admission slot and queue position is occupied — a load balancer must
// be able to see a saturated-but-healthy instance.
func TestAdmissionHealthBypass(t *testing.T) {
	s := New(Config{JobWorkers: 1, CacheEntries: 4,
		MaxInflight: 1, AdmissionQueue: 0, QueueWait: time.Millisecond,
		Logf: t.Logf})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)

	// Occupy the single slot with a slow stats request? Stats is fast;
	// instead occupy the slot directly, exactly what a stuck handler does.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp := get(t, srv.Client(), srv.URL+path)
		drainBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d with slots full, want 200", path, resp.StatusCode)
		}
	}
	resp := get(t, srv.Client(), srv.URL+"/v1/graphs")
	drainBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("GET /v1/graphs = %d with slots full, want 429", resp.StatusCode)
	}
}

// TestPanicRecovery drives a panicking handler through the middleware
// stack: the client sees a JSON 500, the counter ticks, and the process
// survives. http.ErrAbortHandler stays un-recovered by our layer (the
// net/http server handles it) and is not counted.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{JobWorkers: 1, CacheEntries: 4, Logf: t.Logf})
	t.Cleanup(s.Close)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		panic("boom: " + r.URL.Path)
	})
	srv := httptest.NewServer(s.recoverPanics(inner))
	t.Cleanup(srv.Close)

	resp := get(t, srv.Client(), srv.URL+"/solve")
	body := drainBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil || payload.Error == "" {
		t.Fatalf("500 body is not the JSON error envelope: %q", body)
	}
	if strings.Contains(payload.Error, "boom") {
		t.Fatalf("panic value leaked to the client: %q", payload.Error)
	}
	if got := s.Counters().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}

	// ErrAbortHandler: the connection dies without a response and the
	// recovery counter must not move.
	if _, err := srv.Client().Get(srv.URL + "/abort"); err == nil {
		t.Fatal("aborted handler produced a response, want transport error")
	}
	if got := s.Counters().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d after ErrAbortHandler, want still 1", got)
	}
}

// TestDegradedModeEndToEnd walks the full degraded lifecycle over HTTP:
// a persistent storage fault exhausts the append retries and latches
// read-only mode; writes answer 503 + Retry-After while queries keep
// serving; /readyz reports not-ready with the cause while /healthz
// stays 200; lifting the fault and probing restores full service with
// an intact version chain.
func TestDegradedModeEndToEnd(t *testing.T) {
	reg := fault.NewRegistry(7)
	reg.Logf = t.Logf
	s, err := Open(Config{
		DataDir: t.TempDir(), FS: fault.Inject(fault.OS{}, reg),
		JobWorkers: 1, CacheEntries: 4,
		AppendRetries: 1, ProbeInterval: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	client := srv.Client()

	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}

	// Every WAL fsync now fails cleanly; the next append burns its
	// retries and must latch degraded mode.
	reg.Add(fault.Rule{Site: "sync:wal.log", Kind: fault.KindErr})
	resp, err := client.Post(srv.URL+"/v1/graphs/"+sg.ID+"/edges", "text/plain", strings.NewReader("0 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append with failing WAL = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	if deg, cause := s.Degraded(); !deg || cause == "" {
		t.Fatalf("service not degraded after retry exhaustion (deg=%v cause=%q)", deg, cause)
	}
	if got := s.Counters().StoreRetries; got == 0 {
		t.Fatal("StoreRetries counter never moved; the append was not retried")
	}

	// Writes shed, reads serve.
	resp, err = client.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader("2 1\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("load while degraded = %d, want 503", resp.StatusCode)
	}
	resp = get(t, client, srv.URL+"/v1/graphs/"+sg.ID)
	drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read while degraded = %d, want 200", resp.StatusCode)
	}

	// Probe semantics while the fault persists.
	resp = get(t, client, srv.URL+"/healthz")
	drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while degraded = %d, want 200", resp.StatusCode)
	}
	resp = get(t, client, srv.URL+"/readyz")
	body := drainBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded":true`) {
		t.Fatalf("/readyz while degraded = %d %q, want 503 with degraded:true", resp.StatusCode, body)
	}

	// The storage fault heals; one probe restores full service.
	reg.Clear()
	if !s.TryRecover() {
		t.Fatal("TryRecover failed with a healthy filesystem")
	}
	resp = get(t, client, srv.URL+"/readyz")
	drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", resp.StatusCode)
	}
	resp, err = client.Post(srv.URL+"/v1/graphs/"+sg.ID+"/edges", "text/plain", strings.NewReader("0 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	body = drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after recovery = %d (%s), want 200", resp.StatusCode, body)
	}
	var vi struct {
		Version    int `json:"version"`
		Components int `json:"components"`
	}
	if err := json.Unmarshal([]byte(body), &vi); err != nil {
		t.Fatalf("append response: %v (%s)", err, body)
	}
	// The failed attempt must not have consumed a version number: this
	// is the first durable append, so it is version 1, and edge 0-6
	// merges the two components.
	if vi.Version != 1 {
		t.Fatalf("post-recovery append landed at version %d, want 1", vi.Version)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("service still degraded after successful recovery")
	}
}

// blockingAlgo is a registered test algorithm whose Find blocks until
// released, for exercising the drain deadline.
type blockingAlgo struct {
	gate chan struct{}
}

func (b *blockingAlgo) Name() string { return "test-blocking" }

func (b *blockingAlgo) Find(v graph.View, opts algo.Options) (*algo.Result, error) {
	<-b.gate
	return &algo.Result{Labels: make([]graph.Vertex, v.NumVertices()), Components: 1}, nil
}

var blocking = &blockingAlgo{gate: make(chan struct{})}
var registerBlocking sync.Once

// TestCloseTimeoutAbandonsStuckJobs pins the graceful-shutdown contract:
// CloseTimeout waits for in-flight solves up to the deadline, then
// returns the jobs it abandoned instead of hanging forever.
func TestCloseTimeoutAbandonsStuckJobs(t *testing.T) {
	registerBlocking.Do(func() { algo.Register(blocking) })
	t.Cleanup(func() {
		select {
		case <-blocking.gate:
		default:
			close(blocking.gate) // let the stuck worker goroutine exit
		}
	})
	s := New(Config{JobWorkers: 1, CacheEntries: 4, Logf: t.Logf})
	sg, err := s.Load("g", strings.NewReader(twoComponents))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(SolveSpec{GraphID: sg.ID, Algo: "test-blocking"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the job up so the drain actually has
	// something in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := s.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		snap := j.Snapshot()
		if snap.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	abandoned := s.CloseTimeout(50 * time.Millisecond)
	if len(abandoned) != 1 || abandoned[0] != job.ID {
		t.Fatalf("CloseTimeout abandoned %v, want [%s]", abandoned, job.ID)
	}
}
