package graph

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList: the parser must never panic and, when it accepts an
// input, the resulting graph must be internally consistent and round-trip
// through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"3 2\n0 1\n1 2\n",
		"1 0\n",
		"2 1\n0 0\n",
		"# comment\n4 1\n\n2 3\n",
		"0 0\n",
		"5 3\n0 1\n0 1\n4 4\n",
		"bad",
		"2 1\n0 9\n",
		"9999999 1\n0 1\n",
		// Header-hardening cases: n past the Vertex range must be
		// rejected, and a huge claimed m must not pre-allocate (the edge
		// count still has to be backed by actual edge lines).
		"4294967296 0\n",
		"2147483648 1\n0 1\n",
		"3 2000000000\n0 1\n1 2\n",
		"2 1000000000\n0 1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// Guard against plausible headers allocating gigabytes at Build:
		// vertex counts above 2^20 that the parser would accept are
		// skipped. Counts beyond the Vertex range stay in play — those
		// must be rejected cheaply by the header validation.
		if n, ok := headerVertexCount(data); ok && n > 1<<20 && n <= math.MaxInt32 {
			return
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write back: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzReadEdgeListMatchesReference is the differential check of the
// in-place parser against the original Scanner parser kept in
// reference_test.go: under each limit pair both must accept or reject
// the same input, build the same N, M and CSR, and fail with the same
// error text. The reference reports a line over 1 MiB as a bare
// bufio.ErrTooLong; there the parser must fail with that line's
// "graph: line N:" error instead.
func FuzzReadEdgeListMatchesReference(f *testing.F) {
	seeds := []string{
		"3 2\r\n0 1\r\n1 2\r\n",                      // CRLF
		"3 2\r\n0 1\r\r\n1\r2\n",                     // stray CRs trim and separate
		"3 2\n0\t1\n\t1 \t 2\t\n",                    // tabs
		"\v3 2\f\n0 1\n1 2\n",                        // vertical tab, form feed
		"3 2\n0\u00a01\n1 2\u00a0\n",                 // NBSP separates and trims
		"3 2\n\u00850 1\n1\u00852\n",                 // U+0085 separates and trims
		"3 1\n0 1\xa0\n",                             // a lone continuation byte is not space
		"3 1\n0 1\xc2\n",                             // truncated UTF-8
		"8 2\n+7 +0\n1 +2\n",                         // '+' signs
		"8 1\n007 0000000000000000000000000000003\n", // leading zeros
		"3 1\n-0 2\n",                                // minus zero
		"-1 0\n",                                     // negative header
		"3 -1\n",                                     // negative edge count
		"3 1\n0 9223372036854775807\n",               // max int, out of range
		"3 1\n0 9223372036854775808\n",               // int overflow
		"3 1\n0 -9223372036854775809\n",              // negative overflow
		"99999999999999999999 0\n",                   // header overflow
		"3 1\n   # comment after spaces\n0 1\n",
		"#x\n3 1\n\t#\n0 1\n",
		"3 1\n0 1",               // missing final newline
		"3 1\n0 1\r",             // CR, no final newline
		"1 0\n",                  // header only
		"1 0",                    // header only, no newline
		"\n\n3 1\n\n  \n0 1\n\n", // blank lines
		"",                       // empty input
		"\n \t\n# only comments\n",
		"3 1\n0 1 2\n",    // three fields
		"3 1\n0\n",        // one field
		"3 1\n0 1x\n",     // trailing junk
		"3 1\n0x1 2\n",    // hex is not decimal
		"3 1\n0 +\n",      // bare sign
		"3 1\n0 3\n",      // endpoint out of range
		"3 2\n0 1\n",      // fewer edges than promised
		"3 1\n0 1\n1 2\n", // more edges than promised
		"17 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n", // past the small limits
		"2147483648 0\n", // past the Vertex range
		"3 1\n\x000 1\n", // NUL
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// The 1 MiB line limit and both sides of it, with and without a
	// final newline: 2^20-1 bytes before the '\n' is the longest line.
	line := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	f.Add([]byte("1 0\n" + line(1<<20-1) + "\n"))
	f.Add([]byte("1 0\n" + line(1<<20) + "\n"))
	f.Add([]byte("1 0\n" + line(1<<20-1)))
	f.Add([]byte("1 0\n" + line(1<<20)))
	f.Add([]byte("2 1\n0 1\n" + strings.Repeat(" ", 1<<20+5) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<20 {
			return
		}
		limits := [][2]int{{16, 8}}
		// Unlimited runs would build any header's n; skip the ones that
		// would allocate far more than the input is worth.
		if n, ok := headerVertexCount(data); !ok || n <= 1<<20 || n > math.MaxInt32 {
			limits = append(limits, [2]int{0, 0})
		}
		for _, lim := range limits {
			want, werr := referenceReadEdgeListLimit(bytes.NewReader(data), lim[0], lim[1])
			got, gerr := ReadEdgeListLimit(bytes.NewReader(data), lim[0], lim[1])
			switch {
			case errors.Is(werr, bufio.ErrTooLong):
				if gerr == nil || !strings.HasPrefix(gerr.Error(), "graph: line ") || !strings.Contains(gerr.Error(), "longer than") {
					t.Fatalf("limits %v: reference hit the line limit, parser returned %v", lim, gerr)
				}
			case werr != nil:
				if gerr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("limits %v: reference error %q, parser error %v", lim, werr, gerr)
				}
			case gerr != nil:
				t.Fatalf("limits %v: reference accepted, parser error %v", lim, gerr)
			default:
				wantOff, wantAdj := want.CSR()
				gotOff, gotAdj := got.CSR()
				if got.N() != want.N() || got.M() != want.M() || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
					t.Fatalf("limits %v: parser built %v, reference %v, or their CSRs differ", lim, got, want)
				}
			}
		}
	})
}

// FuzzReadBinary: the binary CSR decoder must never panic and, when it
// accepts an input, the graph must be internally consistent and
// round-trip through WriteBinary (accepted inputs need not be in
// canonical edge order, so only the re-encoded form is compared).
func FuzzReadBinary(f *testing.F) {
	// Valid encodings of a few shapes, plus the recorded error cases the
	// unit tests assert on: truncations, bad magic, out-of-range deltas,
	// varint overflows, and huge declared counts.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 3)
	b.AddEdge(4, 5)
	var valid bytes.Buffer
	if err := WriteBinary(&valid, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-1]) // torn tail
	f.Add([]byte(binaryMagic))
	f.Add([]byte("WCCB1\n\x02\x01\x05\x00")) // u delta past n
	f.Add([]byte("WCCB1\n\x03\x01\x00\x01")) // negative v
	f.Add([]byte("not a binary graph"))
	f.Add(append([]byte(binaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte(binaryMagic), 3, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// Same allocation guard as FuzzReadEdgeList: accepted n beyond
		// 2^20 would make Build itself the bottleneck.
		g, err := ReadBinaryLimit(bytes.NewReader(data), 1<<20, 1<<16)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// headerVertexCount extracts the n a well-formed header would declare,
// mirroring ReadEdgeList's comment/blank-line skipping.
func headerVertexCount(data []byte) (int64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return 0, false
		}
		n, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	return 0, false
}
