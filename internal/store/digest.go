package store

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/graph"
)

// DigestGraph hashes the canonical edge list: the header followed by
// every edge in the deterministic CSR iteration order. Build sorts
// adjacencies, so any two graphs with the same edge multiset share a
// digest — the content address graph IDs derive from.
func DigestGraph(g *graph.Graph) string { return DigestView(g) }

// DigestView is DigestGraph over any graph.View, streaming the same
// canonical edge order without materializing — how the disk backend
// re-verifies a mapped snapshot's content digest on open while keeping
// the adjacency out of the heap. The two functions agree byte for byte
// on equal edge multisets, because every View the graph package builds
// — a mapped snapshot, or an Overlay of WAL batches on one — scans in
// the canonical sorted order.
//
// The hashed bytes are exactly graph.WriteEdgeList's output, produced
// on every core: [0, n) is cut into vertex ranges of at most
// digestChunk bytes of text each, GOMAXPROCS workers format the ranges
// in order into a ring of 2×GOMAXPROCS buffers, and the caller feeds
// the buffers to one SHA-256 in range order, handing each back to the
// ring once hashed. Memory is bounded by the ring: a buffer grows past
// digestChunk only to hold a single vertex whose text is longer. A
// graph whose text fits one range, or a GOMAXPROCS of 1, is formatted
// on the caller's goroutine. The view's Degree and Neighbors must be
// safe for concurrent readers (see graph.View); a panic in a worker,
// such as a failed positioned read of a snapshot, is re-raised on the
// caller.
func DigestView(v graph.View) string {
	n := v.NumVertices()
	h := sha256.New()
	buf := make([]byte, 0, digestChunk)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(v.NumEdges()), 10)
	h.Write(append(buf, '\n'))
	cut := newRangeCutter(v)
	first := cut.next(0)
	if workers := runtime.GOMAXPROCS(0); first < n && workers > 1 {
		hashRanges(h, v, cut, first, workers)
	} else {
		var scratch []graph.Vertex
		for lo, hi := 0, first; lo < n; lo, hi = hi, cut.next(hi) {
			buf = appendRange(buf[:0], v, lo, hi, &scratch)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestChunk bounds the text of one DigestView vertex range, and is
// the starting size of each ring buffer.
const digestChunk = 64 << 10

// rangeCutter cuts [0, n) into DigestView's vertex ranges. Every
// half-edge a vertex holds is charged the longest line the graph can
// have, so a range's text never exceeds digestChunk unless the range
// is a single vertex. The charge counts both halves of each edge while
// only the w > u half is written, so a range of a typical graph holds
// about half of digestChunk.
type rangeCutter struct {
	v    graph.View
	n    int
	line int // the longest "u v\n" line over [0, n)
}

func newRangeCutter(v graph.View) *rangeCutter {
	n := v.NumVertices()
	return &rangeCutter{v: v, n: n, line: 2*len(strconv.Itoa(max(n-1, 0))) + 2}
}

// next returns the end of the range that starts at lo < n: the longest
// run of vertices whose charged text fits digestChunk, and at least
// one vertex.
func (c *rangeCutter) next(lo int) int {
	budget := digestChunk
	for u := lo; u < c.n; u++ {
		if budget -= c.v.Degree(graph.Vertex(u)) * c.line; budget < 0 && u > lo {
			return u
		}
	}
	return c.n
}

// digestJob is one vertex range in flight between the hasher and a
// worker: the range, its sequence number (which fixes its ring slot),
// and the buffer it is formatted into.
type digestJob struct {
	seq, lo, hi int
	buf         []byte
	panicked    any // a worker's recovered panic, re-raised by the hasher
}

// hashRanges is DigestView's parallel path. The hasher hands ranges
// out in order on one queue, never more than the ring holds, and
// receives range seq back on slot seq mod ring; it issues range
// seq+ring only after range seq is hashed, so each slot carries one
// range at a time and the sends never block.
func hashRanges(h hash.Hash, v graph.View, cut *rangeCutter, first, workers int) {
	ring := 2 * workers
	// Sized to the ranges in flight, so the hasher never blocks on it.
	work := make(chan digestJob, ring)
	done := make([]chan digestJob, ring)
	for i := range done {
		done[i] = make(chan digestJob, 1)
	}
	var wg sync.WaitGroup
	defer func() {
		close(work)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []graph.Vertex
			for j := range work {
				j.format(v, &scratch)
				done[j.seq%ring] <- j
				// The send may have woken the hasher onto this P; yield
				// so it hashes now, not at the next preemption after
				// the workers have drained the ring.
				runtime.Gosched()
			}
		}()
	}
	issued, lo, hi := 0, 0, first
	issue := func(buf []byte) {
		if lo == cut.n {
			return
		}
		work <- digestJob{seq: issued, lo: lo, hi: hi, buf: buf}
		issued++
		lo, hi = hi, cut.next(hi)
	}
	for i := 0; i < ring && lo < cut.n; i++ {
		issue(make([]byte, 0, digestChunk))
	}
	for seq := 0; seq < issued; seq++ {
		j := <-done[seq%ring]
		if j.panicked != nil {
			panic(j.panicked)
		}
		h.Write(j.buf)
		issue(j.buf)
	}
}

// format fills j.buf with the text of j's range, recording a panic
// instead of letting it kill the process from a worker goroutine.
func (j *digestJob) format(v graph.View, scratch *[]graph.Vertex) {
	defer func() { j.panicked = recover() }()
	j.buf = appendRange(j.buf[:0], v, j.lo, j.hi, scratch)
}

// appendRange appends the edge-list lines of vertices [lo, hi): the
// lines graph.ForEachEdgeView produces for them — each edge to a
// larger neighbour in adjacency order, then the vertex's self-loops
// (two halves each). scratch is the caller's neighbour buffer, grown
// to the largest degree met.
func appendRange(b []byte, v graph.View, lo, hi int, scratch *[]graph.Vertex) []byte {
	for u := graph.Vertex(lo); int(u) < hi; u++ {
		d := v.Degree(u)
		if d == 0 {
			continue
		}
		if cap(*scratch) < d {
			*scratch = make([]graph.Vertex, d)
		}
		loopHalves := 0
		for _, w := range v.Neighbors(u, (*scratch)[:d]) {
			switch {
			case w > u:
				b = appendEdge(b, u, w)
			case w == u:
				loopHalves++
			}
		}
		for i := 0; i < loopHalves/2; i++ {
			b = appendEdge(b, u, u)
		}
	}
	return b
}

// appendEdge appends the line "u w\n".
func appendEdge(b []byte, u, w graph.Vertex) []byte {
	b = append(appendUint32(b, uint32(u)), ' ')
	return append(appendUint32(b, uint32(w)), '\n')
}

// decimalPairs holds "00".."99", two bytes per value.
const decimalPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint32 appends x in decimal — strconv.AppendUint's output —
// writing the digits straight into b, two per division. Canonical
// edges have non-negative endpoints, so this is also AppendInt's.
func appendUint32(b []byte, x uint32) []byte {
	var n int
	switch {
	case x < 10:
		return append(b, byte('0'+x))
	case x < 100:
		return append(b, decimalPairs[2*x], decimalPairs[2*x+1])
	case x < 1e3:
		n = 3
	case x < 1e4:
		n = 4
	case x < 1e5:
		n = 5
	case x < 1e6:
		n = 6
	case x < 1e7:
		n = 7
	case x < 1e8:
		n = 8
	case x < 1e9:
		n = 9
	default:
		n = 10
	}
	l := len(b)
	b = slices.Grow(b, n)[:l+n]
	d := b[l:]
	for i := n; x >= 10; x /= 100 {
		r := x % 100
		i -= 2
		d[i], d[i+1] = decimalPairs[2*r], decimalPairs[2*r+1]
	}
	if n%2 == 1 {
		d[0] = byte('0' + x)
	}
	return b
}
