// Package cmd_test smoke-tests the executables end to end: build them
// once, then drive the wccgen | wccfind pipe, the wccbench table output
// the README advertises, the wccserve HTTP lifecycle, and the wccstream
// and wccload harnesses against a live wccserve.
package cmd_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wccbin")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, tool := range []string{"wccgen", "wccfind", "wccbench", "wccserve", "wccstream", "wccload"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			os.Stderr.Write(out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

func runTool(t *testing.T, stdin []byte, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestGenPipeFind(t *testing.T) {
	edges := runTool(t, nil, "wccgen", "-type", "union", "-sizes", "60,40", "-d", "8", "-seed", "3")
	if !strings.HasPrefix(edges, "100 ") {
		t.Fatalf("unexpected header: %q", edges[:20])
	}
	out := runTool(t, []byte(edges), "wccfind", "-lambda", "0.3", "-seed", "2", "-sizes")
	for _, want := range []string{"components: 2", "verification: exact match", "rounds:"} {
		if !strings.Contains(out, want) {
			t.Errorf("wccfind output missing %q:\n%s", want, out)
		}
	}
	// The -sizes histogram must come out in ascending size order.
	i, j := strings.Index(out, "40 × 1"), strings.Index(out, "60 × 1")
	if i < 0 || j < 0 || i > j {
		t.Errorf("histogram not sorted by size:\n%s", out)
	}
}

// TestGenBinaryPipeFind drives the binary CSR codec end to end through
// the CLIs: wccgen -format binary produces a smaller file than text,
// and wccfind both auto-detects it and accepts it with -format binary.
func TestGenBinaryPipeFind(t *testing.T) {
	text := runTool(t, nil, "wccgen", "-type", "union", "-sizes", "60,40", "-d", "8", "-seed", "3")
	bin := runTool(t, nil, "wccgen", "-type", "union", "-sizes", "60,40", "-d", "8", "-seed", "3", "-format", "binary")
	if len(bin) >= len(text) {
		t.Errorf("binary output %d bytes, text %d — binary should be smaller", len(bin), len(text))
	}
	for _, args := range [][]string{
		{"-algo", "hashtomin", "-sizes"},                      // auto-detect
		{"-algo", "hashtomin", "-format", "binary", "-sizes"}, // pinned
	} {
		out := runTool(t, []byte(bin), "wccfind", args...)
		for _, want := range []string{"components: 2", "verification: exact match"} {
			if !strings.Contains(out, want) {
				t.Errorf("wccfind %v missing %q:\n%s", args, want, out)
			}
		}
	}
	// Pinning the wrong format must fail loudly, not mis-parse.
	cmd := exec.Command(filepath.Join(binDir, "wccfind"), "-format", "text")
	cmd.Stdin = strings.NewReader(bin)
	if err := cmd.Run(); err == nil {
		t.Error("wccfind -format text accepted binary input")
	}
}

func TestFindBaselinesAndSublinear(t *testing.T) {
	edges := runTool(t, nil, "wccgen", "-type", "cycle", "-n", "120")
	for _, algo := range []string{"hashtomin", "boruvka", "labelprop", "exponentiate", "sublinear", "parallel"} {
		out := runTool(t, []byte(edges), "wccfind", "-algo", algo)
		if !strings.Contains(out, "components: 1") || !strings.Contains(out, "verification: exact match") {
			t.Errorf("algo %s: unexpected output:\n%s", algo, out)
		}
	}
}

func TestGenAllTypes(t *testing.T) {
	for _, typ := range []string{"expander", "gnd", "cycle", "path", "clique", "star", "ringofcliques", "bridged"} {
		out := runTool(t, nil, "wccgen", "-type", typ, "-n", "24", "-d", "4")
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
			t.Errorf("type %s produced no edges", typ)
		}
	}
	out := runTool(t, nil, "wccgen", "-type", "grid", "-n", "4", "-d", "5")
	if !strings.HasPrefix(out, "20 ") {
		t.Errorf("grid header: %q", out[:10])
	}
	out = runTool(t, nil, "wccgen", "-type", "hypercube", "-n", "4")
	if !strings.HasPrefix(out, "16 ") {
		t.Errorf("hypercube header: %q", out[:10])
	}
}

func TestGenErrors(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "wccgen"), "-type", "nosuch")
	if err := cmd.Run(); err == nil {
		t.Error("want failure for unknown type")
	}
	cmd = exec.Command(filepath.Join(binDir, "wccgen"), "-type", "union")
	if err := cmd.Run(); err == nil {
		t.Error("want failure for union without sizes")
	}
}

func TestBenchTableOutput(t *testing.T) {
	out := runTool(t, nil, "wccbench", "-quick", "-only", "E14")
	for _, want := range []string{"E14", "paper claim", "violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("wccbench missing %q:\n%s", want, out)
		}
	}
	// Unknown IDs must fail loudly, listing the valid ones — even when
	// mixed with valid IDs (the old code silently ran the subset).
	for _, only := range []string{"E99", "E14,E99"} {
		cmd := exec.Command(filepath.Join(binDir, "wccbench"), "-only", only)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("-only %s: want failure for unknown experiment", only)
		}
		if msg := stderr.String(); !strings.Contains(msg, "E99") || !strings.Contains(msg, "valid") {
			t.Errorf("-only %s: error should name the bad ID and list valid ones, got %q", only, msg)
		}
	}
}

func TestBenchAblation(t *testing.T) {
	out := runTool(t, nil, "wccbench", "-quick", "-only", "A2")
	if !strings.Contains(out, "indepFrac") {
		t.Errorf("ablation table missing:\n%s", out)
	}
}

// TestServeLifecycle boots the wccserve binary on an ephemeral port,
// drives one load→solve→query round trip over real HTTP, then checks the
// SIGTERM path exits cleanly (graceful shutdown).
func TestServeLifecycle(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "wccserve"), "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The startup log line carries the resolved address.
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = strings.TrimSpace(after)
			break
		}
	}
	if base == "" {
		t.Fatal("wccserve never logged its listen address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}
	loaded := post("/v1/graphs?name=pipe", "6 5\n0 1\n1 2\n2 0\n3 4\n4 5\n")
	_, after, ok := strings.Cut(loaded, `"id":"`)
	end := strings.Index(after, `"`)
	if !ok || end < 0 {
		t.Fatalf("load response without id: %s", loaded)
	}
	id := after[:end]
	solved := post("/v1/solve", fmt.Sprintf(`{"graph":%q,"algo":"hashtomin","wait":true}`, id))
	if !strings.Contains(solved, `"components":2`) {
		t.Fatalf("solve response: %s", solved)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/query/same-component?graph=%s&algo=hashtomin&u=0&v=2", base, id))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"same":true`) {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}

	// Graceful shutdown: SIGTERM → clean exit 0.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wccserve exited non-zero after SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("wccserve did not shut down within 15s of SIGINT")
	}
}

// startServe boots wccserve on an ephemeral port and returns its base
// URL; the server is killed when the test ends.
func startServe(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "wccserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
			go io.Copy(io.Discard, stderr)
			return strings.TrimSpace(after)
		}
	}
	t.Fatal("wccserve never logged its listen address")
	return ""
}

// startServeStoppable boots wccserve and returns its base URL plus a
// stop function that SIGTERMs the process and waits for a clean exit —
// the graceful half of a restart cycle.
func startServeStoppable(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "wccserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = strings.TrimSpace(after)
			break
		}
	}
	if base == "" {
		t.Fatal("wccserve never logged its listen address")
	}
	go io.Copy(io.Discard, stderr)
	stop := func() error {
		stopped = true
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("wccserve did not exit within 15s of SIGTERM")
		}
	}
	return base, stop
}

// httpGetBody fetches a URL and returns the raw body, failing the test
// on transport errors or non-2xx statuses.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestServeRestartRecovery is the durability acceptance test: a server
// started with -data-dir, loaded, appended to, and solved, is SIGTERMed
// and restarted on the same directory — and must answer the versions
// endpoint and the cached connectivity queries bit-for-bit identically
// (after one deterministic re-solve; the labeling cache is volatile).
func TestServeRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	base, stop := startServeStoppable(t, "-data-dir", dataDir)

	post := func(base, path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}

	// Load a two-component graph, append one intra- and one
	// inter-component batch (so the digest chain is at version 2), and
	// solve.
	loaded := post(base, "/v1/graphs?name=durable", "6 5\n0 1\n1 2\n2 0\n3 4\n4 5\n")
	_, after, ok := strings.Cut(loaded, `"id":"`)
	end := strings.Index(after, `"`)
	if !ok || end < 0 {
		t.Fatalf("load response without id: %s", loaded)
	}
	id := after[:end]
	post(base, "/v1/graphs/"+id+"/edges", "0 2\n")
	post(base, "/v1/graphs/"+id+"/edges", "2 3\n")
	solveBody := fmt.Sprintf(`{"graph":%q,"algo":"hashtomin","wait":true}`, id)
	post(base, "/v1/solve", solveBody)

	queries := []string{
		"/v1/graphs/" + id + "/versions",
		"/v1/query/same-component?graph=" + id + "&algo=hashtomin&u=0&v=5",
		"/v1/query/component-count?graph=" + id + "&algo=hashtomin",
		"/v1/query/component-size?graph=" + id + "&algo=hashtomin&u=1",
		"/v1/query/sizes?graph=" + id + "&algo=hashtomin",
	}
	before := make(map[string]string, len(queries))
	for _, q := range queries {
		before[q] = httpGetBody(t, base+q)
	}

	// Kill mid-workload (after the appends), then restart on the same
	// data directory.
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	base2, stop2 := startServeStoppable(t, "-data-dir", dataDir)

	// The graph is already there — no re-load. The versions endpoint
	// must be byte-identical immediately; queries need one re-solve
	// (deterministic, so the labeling is the same one).
	if got := httpGetBody(t, base2+queries[0]); got != before[queries[0]] {
		t.Errorf("versions changed across restart:\nbefore: %s\nafter:  %s", before[queries[0]], got)
	}
	post(base2, "/v1/solve", solveBody)
	for _, q := range queries {
		if got := httpGetBody(t, base2+q); got != before[q] {
			t.Errorf("%s changed across restart:\nbefore: %s\nafter:  %s", q, before[q], got)
		}
	}
	// The lineage keeps chaining: the next append lands as version 3.
	out := post(base2, "/v1/graphs/"+id+"/edges", "1 4\n")
	if !strings.Contains(out, `"version":3`) {
		t.Errorf("post-restart append response: %s", out)
	}
	if err := stop2(); err != nil {
		t.Fatalf("second graceful stop: %v", err)
	}
}

// TestStreamReplay drives the full dynamic pipeline through the two new
// binaries: wccstream generates a churn trace, records it, replays the
// recorded file against a live wccserve, and verifies the incrementally
// maintained labeling against a fresh full solve.
func TestStreamReplay(t *testing.T) {
	base := startServe(t)

	// Generated trace straight to the server, with interleaved queries
	// and final verification.
	out := runTool(t, nil, "wccstream",
		"-addr", base, "-family", "union", "-sizes", "40,24", "-d", "6", "-seed", "5",
		"-batches", "12", "-batch-size", "6", "-intra", "0.4",
		"-queries", "3", "-verify")
	for _, want := range []string{"batches/sec", "final: version=12", "verify: fresh dynamic solve agrees"} {
		if !strings.Contains(out, want) {
			t.Errorf("wccstream output missing %q:\n%s", want, out)
		}
	}

	// Record a trace, then replay the files against the same server (a
	// fresh lineage: different seed → different base digest).
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "churn.trace")
	graphPath := filepath.Join(dir, "base.txt")
	runTool(t, nil, "wccstream",
		"-family", "union", "-sizes", "30,20", "-d", "6", "-seed", "9",
		"-batches", "8", "-batch-size", "5",
		"-write-trace", tracePath, "-write-graph", graphPath)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "@ 0") || strings.Count(string(raw), "@ ") != 8 {
		t.Fatalf("recorded trace malformed:\n%.200s", raw)
	}
	out = runTool(t, nil, "wccstream",
		"-addr", base, "-graph", graphPath, "-trace", tracePath, "-verify")
	if !strings.Contains(out, "final: version=8") || !strings.Contains(out, "solve agrees") {
		t.Errorf("trace replay output:\n%s", out)
	}
}

// TestLoadStorm runs a one-second wccload storm in single-query mode and
// in batch mode, with the read targets naming the server twice, and
// checks the summary lines and that no request failed.
func TestLoadStorm(t *testing.T) {
	base := startServe(t)
	for _, mode := range [][]string{nil, {"-batch", "8"}} {
		args := append([]string{"-addr", base, "-targets", base + "," + base,
			"-family", "gnd", "-n", "500", "-d", "4", "-c", "2", "-duration", "1s"}, mode...)
		out := runTool(t, nil, "wccload", args...)
		for _, want := range []string{"read-targets=2", "queries/sec", "(0 errors,", "latency: p50=", "cache hit ratio"} {
			if !strings.Contains(out, want) {
				t.Errorf("wccload %v: output missing %q:\n%s", mode, want, out)
			}
		}
		if n := strings.Count(out, "requests, 0 errors"); n != 2 {
			t.Errorf("wccload %v: %d of 2 per-target lines report 0 errors:\n%s", mode, n, out)
		}
		if mode != nil && !strings.Contains(out, " batch=8") {
			t.Errorf("wccload %v: batch mode not reported:\n%s", mode, out)
		}
	}
}
