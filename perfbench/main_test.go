package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// twoPaths is 0-1-2 and 3-4: components {0,1,2} and {3,4}.
func twoPaths() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
}

func TestCheckSameRejectsWrongAnswer(t *testing.T) {
	labels, _ := graph.Components(twoPaths())
	if err := checkSame(labels, 0, 2, true); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if checkSame(labels, 0, 3, true) == nil {
		t.Fatal("wrong 'same' answer accepted")
	}
	if checkSame(labels, 0, 2, false) == nil {
		t.Fatal("wrong 'different' answer accepted")
	}
	if checkSame(labels, 0, 9, false) == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestCheckBatchRejectsWrongAnswer(t *testing.T) {
	labels, _ := graph.Components(twoPaths())
	yes, no := true, false
	ps := [][2]graph.Vertex{{0, 1}, {2, 4}}
	res := &batchResult{Results: []batchAnswer{{Same: &yes}, {Same: &no}}}
	if err := checkBatch(labels, ps, res); err != nil {
		t.Fatalf("right batch rejected: %v", err)
	}
	res.Results[1].Same = &yes
	if checkBatch(labels, ps, res) == nil {
		t.Fatal("wrong batch answer accepted")
	}
	res.Results[1] = batchAnswer{Error: "bad vertex"}
	if checkBatch(labels, ps, res) == nil {
		t.Fatal("batch item error accepted")
	}
}

func TestCheckReplicaRejectsDivergence(t *testing.T) {
	p := graphInfo{Version: 7, Digest: "aaaa"}
	if err := checkReplica(p, p); err != nil {
		t.Fatalf("identical positions rejected: %v", err)
	}
	if checkReplica(p, graphInfo{Version: 7, Digest: "bbbb"}) == nil {
		t.Fatal("digest mismatch accepted")
	}
	if checkReplica(p, graphInfo{Version: 6, Digest: "aaaa"}) == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestCheckFinalComponentsRejectsWrongCount(t *testing.T) {
	g := twoPaths()
	batches := [][]graph.Edge{{{U: 2, V: 3}}}
	if err := checkFinalComponents(5, g, batches, 1); err != nil {
		t.Fatalf("right count rejected: %v", err)
	}
	if checkFinalComponents(5, g, batches, 2) == nil {
		t.Fatal("wrong count accepted")
	}
}

func TestCheckLabelsRejectsWrongPartition(t *testing.T) {
	g := twoPaths()
	// Any relabeling of the right partition passes.
	if err := checkLabels(g, []graph.Vertex{7, 7, 7, 2, 2}); err != nil {
		t.Fatalf("relabeled right partition rejected: %v", err)
	}
	if checkLabels(g, []graph.Vertex{0, 0, 1, 1, 1}) == nil {
		t.Fatal("wrong partition accepted")
	}
	if checkLabels(g, []graph.Vertex{0, 0, 0, 0, 0}) == nil {
		t.Fatal("merged partition accepted")
	}
}

func TestCheckRoundsRepeatRejectsChangedCount(t *testing.T) {
	if err := checkRoundsRepeat([]int{151, 151, 151}); err != nil {
		t.Fatalf("repeated count rejected: %v", err)
	}
	if checkRoundsRepeat([]int{151, 152}) == nil {
		t.Fatal("changed count accepted")
	}
	if checkRoundsRepeat([]int{151, 151, 150}) == nil {
		t.Fatal("count changed in a later solve accepted")
	}
}

func TestCheckReadsRejectsStaleAnswer(t *testing.T) {
	g := twoPaths()
	batches := [][]graph.Edge{{{U: 2, V: 3}}}
	good := []replicaRead{{version: 0, u: 0, v: 3, same: false}, {version: 1, u: 0, v: 3, same: true}}
	for _, err := range checkReads(g, batches, good) {
		if err != nil {
			t.Fatalf("right answers rejected: %v", err)
		}
	}
	// Answering "different" at version 1 is the version-0 answer: stale.
	bad := []replicaRead{{version: 1, u: 0, v: 3, same: false}}
	if errs := checkReads(g, batches, bad); len(errs) != 1 || errs[0] == nil {
		t.Fatalf("stale answer accepted: %v", errs)
	}
	if errs := checkReads(g, batches, []replicaRead{{version: 2}}); errs[0] == nil {
		t.Fatal("answer at a version that was never written accepted")
	}
}

func TestTallyCountsWrongAnswersAsFailed(t *testing.T) {
	var tl tally
	tl.ok()
	tl.fail(errors.New("refused"))
	tl.check(errors.New("wrong"))
	tl.check(nil)
	attempted, failed, wrong, first := tl.snapshot()
	if attempted != 4 || failed != 2 || wrong != 1 || first == nil || first.Error() != "refused" {
		t.Fatalf("tally = %d attempted, %d failed, %d wrong, first %v", attempted, failed, wrong, first)
	}
}

// buildUnion must reproduce gen.Spec.Build exactly, or the ground truth
// would describe another graph than the one uploaded.
func TestBuildUnionMatchesSpec(t *testing.T) {
	spec := unionSpec(20, 64, 42)
	want, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildUnion(spec)
	if err != nil {
		t.Fatal(err)
	}
	if store.DigestGraph(got.G) != store.DigestGraph(want) {
		t.Fatal("buildUnion graph differs from gen.Spec.Build")
	}
	if err := checkLabels(want, got.Labels); err != nil {
		t.Fatalf("generator labels are not the partition: %v", err)
	}
	base, _, err := gen.TraceSpec{Base: spec, Batches: 1, BatchSize: 4, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if store.DigestGraph(base) != store.DigestGraph(want) {
		t.Fatal("TraceSpec base differs from gen.Spec.Build")
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, _ := buildUnion(unionSpec(4, 64, subSeed(5, "union")))
	b, _ := buildUnion(unionSpec(4, 64, subSeed(5, "union")))
	c, _ := buildUnion(unionSpec(4, 64, subSeed(6, "union")))
	if store.DigestGraph(a.G) != store.DigestGraph(b.G) {
		t.Fatal("same seed gave different inputs")
	}
	if store.DigestGraph(a.G) == store.DigestGraph(c.G) {
		t.Fatal("different seeds gave the same input")
	}
	if subSeed(5, "gnd") == subSeed(5, "union") {
		t.Fatal("sub-seeds of different inputs collide")
	}
}

func TestSeededRetriesFailedSeeds(t *testing.T) {
	first := subSeed(5, "union")
	var tried []uint64
	build := func(s uint64) (uint64, error) {
		tried = append(tried, s)
		if s == first {
			return 0, errors.New("gen: input 3 is empty or disconnected")
		}
		return s, nil
	}
	got, err := seeded(5, "union", build)
	if err != nil || got == first || len(tried) != 2 {
		t.Fatalf("seeded = %d, %v after %d tries; want a second seed after one failure", got, err, len(tried))
	}
	again, _ := seeded(5, "union", build)
	if again != got {
		t.Fatalf("retry seed %d, then %d: the same seed must give the same input", got, again)
	}
	ok, _ := seeded(6, "union", build)
	if ok != subSeed(6, "union") {
		t.Fatal("a seed that generates was not used as is")
	}
	fail := func(uint64) (uint64, error) { return 0, errors.New("always") }
	if _, err := seeded(5, "union", fail); err == nil {
		t.Fatal("seeded hid a generator that never succeeds")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self[1]; got != 100-40-10 {
		t.Fatalf("parent self time = %d, want 50", got)
	}
	if got := self[2]; got != 30 {
		t.Fatalf("leaf self time = %d, want its duration 30", got)
	}
}

func TestAdoptParentsByContainment(t *testing.T) {
	r := newRecorder()
	r.add(span{ID: 1, Req: 9, Name: "service.append", Start: 0, End: 100})
	r.add(span{ID: 2, Name: "service.append", Start: 200, End: 300})
	r.add(span{ID: 3, Name: "fs.primary.sync.wal", Start: 20, End: 30})
	r.add(span{ID: 4, Name: "fs.primary.sync.wal", Start: 150, End: 160}) // between appends
	r.adopt("fs.primary.", "service.append")
	got := r.all()
	if got[2].Parent != 1 || got[2].Req != 9 {
		t.Fatalf("contained span adopted as %+v", got[2])
	}
	if got[3].Parent != 0 {
		t.Fatalf("uncontained span adopted as %+v", got[3])
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{1, 3}); got != 2 {
		t.Errorf("median of a pair = %v, want 2", got)
	}
}

func TestReplLagPairsAckWithFirstVisibleRead(t *testing.T) {
	ms := time.Millisecond
	acks := map[int]time.Duration{1: 10 * ms, 2: 20 * ms, 3: 30 * ms}
	reads := []replicaRead{
		{at: 12 * ms, version: 0},
		{at: 15 * ms, version: 1}, // v1 seen 5ms after its ack
		{at: 40 * ms, version: 3}, // v2 and v3 first seen here
	}
	lag, _ := replLag(acks, reads)
	if got := lag.pct(50); got != 10 {
		t.Fatalf("median lag = %vms, want 10ms (samples %v)", got, lag.xs)
	}
	if len(lag.xs) != 3 {
		t.Fatalf("%d lag samples, want 3", len(lag.xs))
	}
}

// The metric and workload tables here are what BENCHMARK.json declares.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestStrayServerFailsFast(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	root := t.TempDir()
	pidDir := filepath.Join(root, ".bench_build", "servers")
	if err := os.MkdirAll(pidDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, "wccserve")
	if err := os.WriteFile(bin, nil, 0o755); err != nil {
		t.Fatal(err)
	}
	// A record of a live process whose address still answers: a stray.
	record := filepath.Join(pidDir, strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(record, []byte(strings.TrimPrefix(srv.URL, "http://")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newEnv(root, bin); err == nil || !strings.Contains(err.Error(), "stray wccserve") {
		t.Fatalf("newEnv with a live stray server: %v", err)
	}
	// Once it stops answering, the record is stale and is cleared.
	srv.Close()
	e, err := newEnv(root, bin)
	if err != nil {
		t.Fatalf("newEnv after the stray stopped: %v", err)
	}
	e.close()
	if _, err := os.Stat(record); !os.IsNotExist(err) {
		t.Fatalf("stale record kept: %v", err)
	}
}

func TestStolenSecondsWeighsEachVCPUByItsUse(t *testing.T) {
	if got := parseTicks("cpu  100 0 50 1000 10 0 5 45 0 0"); got != (cpuTicks{busy: 155, steal: 45, total: 1210}) {
		t.Fatalf("parsed %+v", got)
	}
	tick := func(busy, idle, steal uint64) cpuTicks {
		return cpuTicks{busy: busy, steal: steal, total: busy + idle + steal}
	}
	t0 := hostTicks{cpus: []cpuTicks{tick(0, 0, 0), tick(0, 0, 0)}}
	for _, c := range []struct {
		name string
		cpus []cpuTicks
		want float64
	}{
		// One vCPU ran for 0.8 s and lost 0.2 s; the other idled.
		{"one busy vCPU", []cpuTicks{tick(80, 0, 20), tick(0, 100, 0)}, 0.2},
		// Both ran; one lost 0.2 s, the other 0.
		{"two busy vCPUs", []cpuTicks{tick(80, 0, 20), tick(100, 0, 0)}, 0.1},
		// The work waited on the disk half the time: it lost only the
		// 0.1 s stolen while it ran.
		{"waiting half the time", []cpuTicks{tick(40, 50, 10), tick(0, 100, 0)}, 0.1},
		{"no steal", []cpuTicks{tick(90, 10, 0), tick(5, 95, 0)}, 0},
	} {
		if got := stolenSeconds(t0, hostTicks{cpus: c.cpus}); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: stolenSeconds = %v, want %v", c.name, got, c.want)
		}
	}
}
