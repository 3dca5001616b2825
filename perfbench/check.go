package main

import (
	"fmt"
	"sync"

	"repro/internal/algo"
	"repro/internal/graph"
)

// tally counts operations against the number attempted. A failed or refused
// operation is failed; a wrong answer is failed and also makes the run
// incorrect. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	firstErr  error
}

// ok records one operation that completed with the right answer.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one operation that failed or was refused.
func (t *tally) fail(err error) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// check records one answered operation: err != nil is a wrong answer.
func (t *tally) check(err error) {
	if err == nil {
		t.ok()
		return
	}
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.wrong++
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

func (t *tally) snapshot() (attempted, failed, wrong int64, first error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.wrong, t.firstErr
}

// checkSame compares a same-component answer with the ground-truth labels.
func checkSame(labels []graph.Vertex, u, v graph.Vertex, same bool) error {
	if int(u) >= len(labels) || int(v) >= len(labels) || u < 0 || v < 0 {
		return fmt.Errorf("query (%d,%d) outside [0,%d)", u, v, len(labels))
	}
	if want := labels[u] == labels[v]; same != want {
		return fmt.Errorf("same-component(%d,%d) = %v, ground truth says %v", u, v, same, want)
	}
	return nil
}

// checkReplica compares the replica's latest version with the primary's.
func checkReplica(primary, replica graphInfo) error {
	if primary.Version != replica.Version || primary.Digest != replica.Digest {
		return fmt.Errorf("replica at v%d digest %.12s, primary at v%d digest %.12s",
			replica.Version, replica.Digest, primary.Version, primary.Digest)
	}
	return nil
}

// checkFinalComponents compares the component count the server reports for
// the final version with a fresh graph.Components over the final edge set.
func checkFinalComponents(n int, base *graph.Graph, batches [][]graph.Edge, reported int) error {
	edges := base.Edges()
	for _, b := range batches {
		edges = append(edges, b...)
	}
	_, want := graph.Components(graph.FromEdges(n, edges))
	if reported != want {
		return fmt.Errorf("server reports %d components after %d batches, graph.Components says %d",
			reported, len(batches), want)
	}
	return nil
}

// checkLabels compares an algorithm's labeling, canonicalized, with
// graph.Components of the same graph.
func checkLabels(g *graph.Graph, labels []graph.Vertex) error {
	want, _ := graph.Components(g)
	got := algo.CanonicalForm(labels)
	if len(got) != len(want) {
		return fmt.Errorf("labeling covers %d vertices, graph has %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d labeled %d after canonical relabeling, graph.Components says %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkRoundsRepeat checks that every solve of one input with one seed
// charged the same number of MPC rounds.
func checkRoundsRepeat(rounds []int) error {
	for i, r := range rounds {
		if r != rounds[0] {
			return fmt.Errorf("mpc rounds differ between solves of one input and seed: %d in the first, %d in solve %d", rounds[0], r, i+1)
		}
	}
	return nil
}
