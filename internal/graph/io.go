package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes g in a simple text format: a header line "n m"
// followed by one "u v" line per undirected edge. The format round-trips
// through ReadEdgeList, including parallel edges and self-loops. The
// bytes written are exactly what store.DigestGraph hashes.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	writePair(bw, int64(g.N()), int64(g.M()))
	g.ForEachEdge(func(e Edge) { writePair(bw, int64(e.U), int64(e.V)) })
	return bw.Flush()
}

// writePair writes one "a b\n" line. A bufio.Writer latches its first
// error and reports it from Flush, so callers check only the Flush.
func writePair(bw *bufio.Writer, a, b int64) {
	buf := strconv.AppendInt(bw.AvailableBuffer(), a, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, b, 10)
	bw.Write(append(buf, '\n'))
}

// maxEdgeHint caps the pre-allocation a header's edge count can request
// (~8 MiB of edge endpoints). Larger graphs still load — the Builder
// grows past the hint — but only by actually supplying the edges.
const maxEdgeHint = 1 << 20

// ReadEdgeList parses the format written by WriteEdgeList. The header's
// edge count is only a capacity hint (clamped before allocating); the
// vertex count is bounded by the 32-bit Vertex range. Note that an
// accepted vertex count still costs O(n) at Build even with zero edges —
// callers parsing untrusted input (servers) should use ReadEdgeListLimit
// with an explicit cap.
//
// The accepted grammar, line by line (lines end at '\n'; a final line
// needs none):
//
//   - A line is at most 1 MiB − 1 bytes before its '\n'; a longer one is
//     an error naming its line number.
//   - Leading and trailing whitespace is trimmed, whitespace being what
//     unicode.IsSpace accepts: ASCII space, \t, \v, \f, \r (so CRLF
//     files load) and \n, plus U+0085 and U+00A0 (NBSP) in UTF-8.
//   - A line that is then empty, or starts with '#', is skipped.
//   - Any other line must hold exactly two whitespace-separated fields,
//     each accepted by strconv.Atoi: an optional '+' or '-', decimal
//     digits, leading zeros allowed, out-of-int range rejected.
//   - The first such line is the header "n m": both non-negative, n at
//     most the Vertex range. Every later line is an edge "u v" with both
//     endpoints in [0, n), and there must be exactly m of them.
//
// Errors about one line start with "graph: line N:", N counting every
// line from 1, blank and comment lines included.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimit(r, 0, 0)
}

// ReadEdgeBatch parses the edge-batch wire format used by the dynamic
// append endpoint (POST /v1/graphs/{id}/edges) and by cmd/wccstream
// traces: the line grammar described at ReadEdgeList with no header, so
// every line that is not blank or a '#' comment is one "u v" edge.
// Unlike the full edge-list format, a batch describes a delta against an
// existing graph, so there is no vertex count to trust — every endpoint
// must lie in [0, maxVertex), maxVertex capped at the Vertex range, and
// parsing aborts once more than maxEdges lines appear (maxEdges <= 0
// rejects everything, so callers cannot accidentally pass "no limit";
// batches are untrusted). Duplicate and parallel edges are legal — the
// graphs are multigraphs — and an empty batch is legal too (the caller
// decides whether a no-op append bumps a version). Errors are those of
// ReadEdgeListLimit, with "graph: batch line N:" for "graph: line N:".
func ReadEdgeBatch(r io.Reader, maxVertex, maxEdges int) ([]Edge, error) {
	if maxEdges <= 0 {
		return nil, fmt.Errorf("graph: batch edge limit %d rejects all batches", maxEdges)
	}
	maxVertex = min(maxVertex, math.MaxInt32)
	edges := make([]Edge, 0, min(maxEdges, 64))
	lines := edgeLines{br: bufio.NewReaderSize(r, readBufBytes), what: "batch line"}
	for {
		u, v, err := lines.next()
		switch {
		case err == io.EOF:
			return edges, nil
		case err != nil:
			return nil, err
		case u < 0 || u >= maxVertex || v < 0 || v >= maxVertex:
			return nil, lines.errorf("edge (%d,%d) out of range [0,%d)", u, v, maxVertex)
		case len(edges) >= maxEdges:
			return nil, lines.errorf("more than %d edges", maxEdges)
		}
		edges = append(edges, Edge{U: Vertex(u), V: Vertex(v)})
	}
}

// WriteEdgeBatch writes edges in the ReadEdgeBatch wire format. When w
// is a *bufio.Writer of the default size or larger, it writes through
// it and flushes it.
func WriteEdgeBatch(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		writePair(bw, int64(e.U), int64(e.V))
	}
	return bw.Flush()
}

// maxLineBytes bounds one edge-list line, its '\n' included.
const maxLineBytes = 1 << 20

// readBufBytes is the parser's read buffer. Lines longer than it are
// gathered into a growable buffer up to maxLineBytes, so a small body
// costs a small buffer and only a long line pays for its length.
const readBufBytes = 16 << 10

// maxFastDigits is the longest decimal token the in-place parser
// accepts: 18 digits cannot overflow a 64-bit int, 9 cannot overflow a
// 32-bit one. Longer tokens (leading zeros, overflow) take the
// strconv route, which decides them exactly as Atoi does.
const maxFastDigits = 9 + 9*(strconv.IntSize/64)

// ReadEdgeListLimit is ReadEdgeList with caps enforced while parsing:
// headers declaring more than maxVertices are rejected before any
// allocation is sized from them, and the read aborts as soon as more
// than maxEdges edge lines appear (the header's claim and the actual
// lines both count, so the limit bounds per-request memory, not just the
// final graph). Zero or negative means unlimited: the full Vertex range
// for maxVertices, no cap for maxEdges.
//
// Lines are tokenized in place in the read buffer, with no allocation
// per line: only a line holding a non-ASCII byte, a sign, an over-long
// number or a malformed field goes through strings/strconv, so the
// grammar described at ReadEdgeList is decided by the standard library
// in every corner case. An error from r is returned wrapped (errors.As
// still finds it) without parsing the partial line in front of it.
func ReadEdgeListLimit(r io.Reader, maxVertices, maxEdges int) (*Graph, error) {
	lines := edgeLines{br: bufio.NewReaderSize(r, readBufBytes), what: "line"}
	var b *Builder
	m := 0 // the header's edge count
	a, c, err := lines.next()
	for ; err == nil; a, c, err = lines.next() {
		if b != nil {
			if a < 0 || a >= b.n || c < 0 || c >= b.n {
				return nil, lines.errorf("edge (%d,%d) out of range [0,%d)", a, c, b.n)
			}
			if maxEdges > 0 && len(b.us) >= maxEdges {
				return nil, lines.errorf("more than %d edges", maxEdges)
			}
			b.us = append(b.us, Vertex(a))
			b.vs = append(b.vs, Vertex(c))
			continue
		}
		if a < 0 || c < 0 {
			return nil, lines.errorf("negative header")
		}
		// The header is untrusted until the edge count has been
		// verified: reject vertex counts past the caller's limit (or
		// past what any Vertex can index), and treat the edge count
		// only as a capacity hint, clamped so a typo'd or hostile
		// header cannot force a huge allocation before the first edge
		// line is even read.
		limit := maxVertices
		if limit <= 0 || limit > math.MaxInt32 {
			limit = math.MaxInt32
		}
		if a > limit {
			return nil, lines.errorf("vertex count %d exceeds limit %d", a, limit)
		}
		if maxEdges > 0 && c > maxEdges {
			return nil, lines.errorf("edge count %d exceeds limit %d", c, maxEdges)
		}
		b = NewBuilderHint(a, min(c, maxEdgeHint))
		m = c
	}
	if err != io.EOF {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(b.us) != m {
		return nil, fmt.Errorf("graph: header promised %d edges, got %d", m, len(b.us))
	}
	return b.Build(), nil
}

// edgeLines reads the line grammar described at ReadEdgeList one pair
// at a time: ReadEdgeListLimit and ReadEdgeBatch differ only in what
// they do with each pair.
type edgeLines struct {
	br     *bufio.Reader
	long   []byte // a line longer than br's buffer, gathered
	what   string // names a line in errors: "line" or "batch line"
	lineNo int    // the line last read, counting from 1
	done   bool   // the last line has been read
}

// next returns the two fields of the next line that is not blank or a
// comment, or io.EOF after the last line.
func (l *edgeLines) next() (int, int, error) {
	for !l.done {
		line, rerr := l.br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			line, rerr = readLongLine(l.br, line, &l.long)
		}
		l.lineNo++
		// A caller's own bufio.Reader of at least readBufBytes comes
		// back from NewReaderSize unchanged and may return a whole
		// line past the limit, so the limit is checked on the line
		// itself, '\n' excluded.
		content := len(line)
		if content > 0 && line[content-1] == '\n' {
			content--
		}
		if rerr == bufio.ErrBufferFull || content >= maxLineBytes {
			return 0, 0, l.errorf("longer than %d bytes", maxLineBytes-1)
		}
		if rerr != nil && rerr != io.EOF {
			return 0, 0, l.errorf("%w", rerr)
		}
		l.done = rerr == io.EOF
		a, c, kind := scanEdgeLine(line)
		if kind == lineOther {
			var err error
			if a, c, kind, err = parseEdgeLineSlow(line); err != nil {
				return 0, 0, l.errorf("%w", err)
			}
		}
		if kind == linePair {
			return a, c, nil
		}
	}
	return 0, 0, io.EOF
}

// errorf returns an error about the line last read, prefixed
// "graph: <what> N:".
func (l *edgeLines) errorf(format string, args ...any) error {
	return fmt.Errorf("graph: %s %d: %w", l.what, l.lineNo, fmt.Errorf(format, args...))
}

// readLongLine finishes a line that filled br's buffer: it gathers
// first and the pieces after it into *long (reused across lines) until
// the '\n', an error from br, or maxLineBytes bytes without a '\n',
// which it reports as bufio.ErrBufferFull. At most one buffer's worth
// past maxLineBytes is ever held.
func readLongLine(br *bufio.Reader, first []byte, long *[]byte) ([]byte, error) {
	buf := append((*long)[:0], first...)
	err := bufio.ErrBufferFull
	for err == bufio.ErrBufferFull && len(buf) < maxLineBytes {
		var piece []byte
		piece, err = br.ReadSlice('\n')
		buf = append(buf, piece...)
	}
	*long = buf
	return buf, err
}

// lineKind classifies one edge-list line.
type lineKind uint8

const (
	lineSkip  lineKind = iota // blank, whitespace only, or a '#' comment
	linePair                  // two decimal fields
	lineOther                 // anything else: decided by parseEdgeLineSlow
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts — the
// separators strings.TrimSpace and strings.Fields use below 0x80.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanEdgeLine is the allocation-free tokenizer for the common case: a
// line of ASCII whitespace, optionally a '#' comment, or exactly two
// unsigned decimals of at most maxFastDigits digits. It reports
// lineOther for everything else, never an error: non-ASCII bytes (whose
// whitespace only unicode.IsSpace decides), signs, long numbers, extra
// fields and stray characters all take the reference route.
func scanEdgeLine(line []byte) (a, c int, kind lineKind) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' {
		return 0, 0, lineSkip
	}
	a, i, ok := scanDecimal(line, i)
	if !ok || i == len(line) {
		return 0, 0, lineOther
	}
	c, i, ok = scanDecimal(line, skipSpace(line, i))
	if !ok || skipSpace(line, i) != len(line) {
		return 0, 0, lineOther
	}
	return a, c, linePair
}

// skipSpace returns the index of the first non-ASCII-space byte of line
// at or after i.
func skipSpace(line []byte, i int) int {
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	return i
}

// scanDecimal parses the run of digits at line[i:], which must be
// non-empty, at most maxFastDigits long, and end at a space or the end
// of the line. It returns the value and the index just past the run.
func scanDecimal(line []byte, i int) (int, int, bool) {
	start, x := i, 0
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		x = x*10 + int(d)
	}
	if n := i - start; n == 0 || n > maxFastDigits || (i < len(line) && !asciiSpace[line[i]]) {
		return 0, 0, false
	}
	return x, i, true
}

// parseEdgeLineSlow decides one line with strings.TrimSpace,
// strings.Fields and strconv.Atoi — the parser's grammar by definition,
// used for every line scanEdgeLine does not take.
func parseEdgeLineSlow(line []byte) (a, c int, kind lineKind, err error) {
	s := strings.TrimSpace(string(line))
	if s == "" || strings.HasPrefix(s, "#") {
		return 0, 0, lineSkip, nil
	}
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return 0, 0, 0, fmt.Errorf("want 2 fields, got %d", len(fields))
	}
	if a, err = strconv.Atoi(fields[0]); err != nil {
		return 0, 0, 0, err
	}
	if c, err = strconv.Atoi(fields[1]); err != nil {
		return 0, 0, 0, err
	}
	return a, c, linePair, nil
}
