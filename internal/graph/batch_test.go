package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestUnionFindGrowAndSetSize(t *testing.T) {
	uf := NewUnionFind(3)
	if uf.N() != 3 || uf.Sets() != 3 {
		t.Fatalf("fresh forest: N=%d Sets=%d", uf.N(), uf.Sets())
	}
	uf.Union(0, 1)
	if got := uf.SetSize(1); got != 2 {
		t.Fatalf("SetSize after union = %d, want 2", got)
	}
	uf.Grow(2) // elements 3, 4
	if uf.N() != 5 || uf.Sets() != 4 {
		t.Fatalf("after Grow(2): N=%d Sets=%d, want 5, 4", uf.N(), uf.Sets())
	}
	if uf.SetSize(3) != 1 || uf.SetSize(4) != 1 {
		t.Fatalf("grown elements must be singletons")
	}
	if !uf.Union(4, 0) {
		t.Fatalf("union of grown element with old set must merge")
	}
	if !uf.Connected(4, 1) || uf.SetSize(4) != 3 {
		t.Fatalf("grown element not merged into {0,1}: connected=%v size=%d", uf.Connected(4, 1), uf.SetSize(4))
	}
	// Labels stay dense and first-appearance ordered across growth.
	labels := uf.Labels()
	want := []Vertex{0, 0, 1, 2, 0}
	for i, l := range labels {
		if l != want[i] {
			t.Fatalf("Labels() = %v, want %v", labels, want)
		}
	}
}

func TestReadEdgeBatch(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		maxV    int
		maxE    int
		wantN   int
		wantErr string
	}{
		{"simple", "0 1\n2 3\n", 4, 10, 2, ""},
		{"comments and blanks", "# append\n\n1 0\n", 2, 10, 1, ""},
		{"duplicates allowed", "0 1\n0 1\n1 0\n", 2, 10, 3, ""},
		{"self-loop allowed", "1 1\n", 2, 10, 1, ""},
		{"empty batch", "", 2, 10, 0, ""},
		{"vertex out of range", "0 5\n", 4, 10, 0, "out of range"},
		{"negative vertex", "-1 0\n", 4, 10, 0, "out of range"},
		{"oversized batch", "0 1\n0 1\n0 1\n", 2, 2, 0, "more than 2 edges"},
		{"three fields", "0 1 2\n", 4, 10, 0, "want 2 fields"},
		{"not a number", "a b\n", 4, 10, 0, "invalid syntax"},
		{"zero limit rejects", "0 1\n", 4, 0, 0, "rejects all"},
		// An unlimited caller's maxVertex is capped at the Vertex
		// range: 2^32+1 must not wrap to the edge (1,0).
		{"endpoint past the Vertex range", "4294967297 0\n", math.MaxInt, 10, 0, "out of range [0,2147483647)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges, err := ReadEdgeBatch(strings.NewReader(tc.in), tc.maxV, tc.maxE)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(edges) != tc.wantN {
				t.Fatalf("got %d edges, want %d", len(edges), tc.wantN)
			}
		})
	}
}

// TestEdgeBatchRoundTrip pins WriteEdgeBatch's bytes, one "u v" line
// per edge in order, and reads them back.
func TestEdgeBatchRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {3, 2}, {4, 4}, {0, 1}, {2147483646, 0}}
	var buf bytes.Buffer
	if err := WriteEdgeBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	if want := "0 1\n3 2\n4 4\n0 1\n2147483646 0\n"; buf.String() != want {
		t.Fatalf("wrote %q, want %q", buf.String(), want)
	}
	out, err := ReadEdgeBatch(&buf, math.MaxInt, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, in) {
		t.Fatalf("round trip changed the batch: %v -> %v", in, out)
	}
}

// FuzzReadEdgeBatch is the differential check of ReadEdgeBatch against
// referenceReadEdgeBatch, the Scanner parser it replaced: under each
// limit pair both must return the same edges or fail with the same error
// text. A cut in [0, len(data)], at most 64 KiB, makes the reader fail
// after that many bytes. The intended differences, each pinned by seed
// rows:
//
//   - A line over 1 MiB: the reference fails with a bare
//     bufio.ErrTooLong, ReadEdgeBatch with that line's
//     "graph: batch line N:" error.
//   - A reader failing mid-line: the reference parses the partial line
//     in front of the failure. ReadEdgeBatch must fail as the reference
//     does on the complete lines before it, or else with the reader's
//     error, wrapped.
//   - A maxVertex past the Vertex range: the reference wraps endpoints
//     of 2^31 or more to 32 bits. ReadEdgeBatch caps maxVertex at
//     math.MaxInt32, so it must match the reference given that cap.
//
// Accepted batches must also keep the invariants the append endpoint
// relies on for untrusted bodies (endpoints in range, at most maxEdges
// edges) and round-trip through WriteEdgeBatch, whose bytes must be
// those of one fmt "%d %d\n" per edge.
func FuzzReadEdgeBatch(f *testing.F) {
	seeds := []string{
		"0 1\n1 2\n",
		"",
		"# comment only\n",
		"0 0\n",
		"0 1\n0 1\n0 1\n0 1\n",     // duplicates
		"5 0\n",                    // out of range for small maxVertex
		"-1 2\n",                   // negative
		"1 2 3\n",                  // field count
		"99999999999999999999 0\n", // overflows int
		"0 1\nx y\n",
		strings.Repeat("0 1\n", 100), // oversized vs the small limit below
		"0 1\r\n\t2 +3 \n",           // CRLF, tabs, a sign
		"0\u00a01\n",                 // NBSP separates
		"2147483647 0\n",             // the first endpoint past the Vertex range
		"2147483648 1\n",             // wraps to -2^31 in the reference
		"4294967297 0\n",             // wraps to 1 in the reference
		"0 1\n#" + strings.Repeat("x", 1<<20) + "\n0 1\n", // a line over 1 MiB
	}
	for _, s := range seeds {
		f.Add([]byte(s), -1)
	}
	// Reader errors: mid-line, on a line boundary, and after a bad line.
	f.Add([]byte("0 1\n1 2\n"), 6)
	f.Add([]byte("0 1\n1 2\n"), 5)
	f.Add([]byte("0 1\n1 2\n"), 4)
	f.Add([]byte("0 1\n1 2\n"), 0)
	f.Add([]byte("0 9\n1 2\n"), 6)
	cutErr := errors.New("body cut")
	limits := [][2]int{{7, 16}, {math.MaxInt, 1 << 20}}
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if len(data) > 4<<20 {
			return
		}
		for _, lim := range limits {
			maxV, maxE := lim[0], lim[1]
			var (
				got  []Edge
				gerr error
				want []Edge
				werr error
			)
			if cut >= 0 && cut <= len(data) && cut <= 1<<16 {
				got, gerr = ReadEdgeBatch(&failingReader{data: data[:cut], err: cutErr}, maxV, maxE)
				complete := data[:bytes.LastIndexByte(data[:cut], '\n')+1]
				want, werr = referenceReadEdgeBatch(bytes.NewReader(complete), min(maxV, math.MaxInt32), maxE)
				if werr == nil {
					if !errors.Is(gerr, cutErr) || !strings.HasPrefix(gerr.Error(), "graph: batch line ") {
						t.Fatalf("limits %v, cut %d: got %v, want the reader's error on its line", lim, cut, gerr)
					}
					continue
				}
			} else {
				got, gerr = ReadEdgeBatch(bytes.NewReader(data), maxV, maxE)
				want, werr = referenceReadEdgeBatch(bytes.NewReader(data), min(maxV, math.MaxInt32), maxE)
			}
			switch {
			case errors.Is(werr, bufio.ErrTooLong):
				if gerr == nil || !strings.HasPrefix(gerr.Error(), "graph: batch line ") || !strings.Contains(gerr.Error(), "longer than") {
					t.Fatalf("limits %v: reference hit the line limit, parser returned %v", lim, gerr)
				}
			case werr != nil:
				if gerr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("limits %v: reference error %q, parser error %v", lim, werr, gerr)
				}
			case gerr != nil:
				t.Fatalf("limits %v: reference accepted, parser error %v", lim, gerr)
			case !slices.Equal(got, want):
				t.Fatalf("limits %v: parser read %v, reference %v", lim, got, want)
			default:
				checkAcceptedBatch(t, got, maxV, maxE)
			}
		}
	})
}

// checkAcceptedBatch asserts the append endpoint's invariants on an
// accepted batch and its round trip through WriteEdgeBatch.
func checkAcceptedBatch(t *testing.T, edges []Edge, maxV, maxE int) {
	t.Helper()
	if len(edges) > maxE {
		t.Fatalf("accepted %d edges past limit %d", len(edges), maxE)
	}
	var old []byte
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= maxV || e.V < 0 || int(e.V) >= maxV {
			t.Fatalf("accepted out-of-range edge %v", e)
		}
		old = fmt.Appendf(old, "%d %d\n", e.U, e.V)
	}
	var buf bytes.Buffer
	if err := WriteEdgeBatch(&buf, edges); err != nil {
		t.Fatalf("write back: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), old) {
		t.Fatalf("WriteEdgeBatch wrote %q, want %q", buf.Bytes(), old)
	}
	again, err := ReadEdgeBatch(&buf, maxV, maxE)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !slices.Equal(again, edges) {
		t.Fatalf("round trip changed the batch: %v -> %v", edges, again)
	}
}
