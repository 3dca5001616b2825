package repl

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/service"
)

// Satellite: snapshot-transfer edge cases. The transfer format (WCCM1)
// is self-verifying, so every corruption mode must fail at open — on the
// replica, before anything is installed — and the pinned store.View on
// the primary must keep a snapshot transfer alive across a concurrent
// eviction.

func fetchSnapshot(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/repl/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot fetch: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotTruncatedDownloadFailsVerification(t *testing.T) {
	plb := &logBuf{}
	psvc, _, srv := newPrimary(t, service.Config{}, fastOpts(plb))
	sg := loadGraph(t, psvc, "trunc", pathEdgeList)
	appendN(t, psvc, sg.ID, 2)

	data := fetchSnapshot(t, srv.URL, sg.ID)
	if _, err := graph.OpenMappedSource(graph.NewBytesSource(data)); err != nil {
		t.Fatalf("intact snapshot must verify: %v", err)
	}
	// A truncation anywhere — one byte short, half the file, the header
	// alone, nothing at all — must fail the open.
	for _, keep := range []int{len(data) - 1, len(data) / 2, 64, 16, 0} {
		if keep >= len(data) {
			continue
		}
		if _, err := graph.OpenMappedSource(graph.NewBytesSource(data[:keep])); err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes verified", keep, len(data))
		}
	}
}

func TestSnapshotBitFlipFailsVerification(t *testing.T) {
	plb := &logBuf{}
	psvc, _, srv := newPrimary(t, service.Config{}, fastOpts(plb))
	sg := loadGraph(t, psvc, "flip", pathEdgeList)
	data := fetchSnapshot(t, srv.URL, sg.ID)

	// Flip one bit at a spread of offsets: header, adjacency, meta blob,
	// trailer. Every flip must be caught.
	for _, off := range []int{0, 8, len(data) / 3, len(data) / 2, 2 * len(data) / 3, len(data) - 1} {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[off] ^= 0x10
		if _, err := graph.OpenMappedSource(graph.NewBytesSource(mut)); err == nil {
			t.Errorf("snapshot with bit flipped at offset %d verified", off)
		}
	}
}

// TestSnapshotTransferSurvivesConcurrentEviction pins the race the feed
// must win: a snapshot transfer is mid-flight (stalled by an injected
// fault) when the graph is evicted under MaxGraphs pressure. The pinned
// store.View keeps the snapshot bytes alive until the transfer's
// release, so the replica-side verification still passes.
func TestSnapshotTransferSurvivesConcurrentEviction(t *testing.T) {
	preg := fault.NewRegistry(9)
	// Stall each snapshot write long enough for the eviction to land
	// mid-transfer. WriteMappedView writes header, adjacency chunks,
	// trailer — several writes, each stalled.
	preg.Add(fault.Rule{Site: "send:snapshot", Kind: fault.KindStall, Delay: 50 * time.Millisecond})
	plb := &logBuf{}
	popt := fastOpts(plb)
	popt.Registry = preg
	// Durable store (every snapshot is a mapping), so eviction really
	// unlinks files and the pin really is what keeps the mapping.
	psvc, _, srv := newPrimary(t, service.Config{DataDir: t.TempDir(), MaxGraphs: 1}, popt)
	sg := loadGraph(t, psvc, "pinned", pathEdgeList)

	var (
		wg   sync.WaitGroup
		data []byte
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		data = fetchSnapshot(t, srv.URL, sg.ID)
	}()

	// Let the transfer start, then evict the graph underneath it.
	time.Sleep(75 * time.Millisecond)
	loadGraph(t, psvc, "evictor", "4 2\n0 1\n2 3\n")
	wg.Wait()

	mg, err := graph.OpenMappedSource(graph.NewBytesSource(data))
	if err != nil {
		t.Fatalf("transfer racing eviction failed verification: %v", err)
	}
	g := graph.MaterializeView(mg)
	if g.N() != 5 || g.M() != 3 {
		t.Fatalf("transferred graph shape n=%d m=%d, want 5/3", g.N(), g.M())
	}
}
