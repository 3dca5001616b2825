package graph

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"unsafe"
)

// WCCM1 is the fixed-width, page-aligned, mmap-able CSR snapshot format
// — the out-of-core sibling of the varint WCCB1 codec. Layout:
//
//	header page   [0, 4096): magic ∥ 7 × uint64 LE (n, m, halves,
//	              metaLen, adjOff, offOff, fileSize) ∥ meta bytes ∥ zeros
//	adj section   [adjOff, offOff): halves × uint32 LE neighbor entries
//	              in vertex order, each list sorted ascending, plus zero
//	              padding to the next 8-byte boundary
//	offsets       [offOff, offOff+8(n+1)): uint64 LE CSR offsets
//	trailer       96 bytes: SHA-256(header page) ∥ SHA-256(adj section)
//	              ∥ SHA-256(offsets section)
//
// Every byte of the file is covered by exactly one trailer digest, so a
// single flipped bit anywhere fails verification on open. adjOff is one
// page, which makes the cast from mapped pages to the []int32 adjacency
// alignment-safe; offOff is 8-aligned for the []uint64 offsets. The
// fixed widths are the point: a reader serves Neighbors straight off
// the mapped (or pread) file with no decode pass, so only the O(n)
// offset array ever needs to be heap-resident.
//
// The meta bytes are an opaque caller blob (internal/store embeds its
// snapshot metadata JSON there); CLI-written files leave it empty.
const (
	mappedMagic      = "WCCM1\n\x00\x00"
	mappedHeaderLen  = 64
	mappedPage       = 4096
	mappedTrailerLen = 3 * sha256.Size
	// MappedMetaLimit is the largest meta blob the header page can hold.
	MappedMetaLimit = mappedPage - mappedHeaderLen
)

// mappedLayout is the parsed, validated header of a WCCM1 file.
type mappedLayout struct {
	n        int
	m        int64
	halves   int64
	metaLen  int
	adjOff   int64
	offOff   int64
	fileSize int64
}

func (l mappedLayout) trailerOff() int64 { return l.fileSize - mappedTrailerLen }

// layoutFor computes the layout of a graph with n vertices and m edges.
func layoutFor(n int, m int64, metaLen int) mappedLayout {
	halves := 2 * m
	adjOff := int64(mappedPage)
	offOff := adjOff + 4*halves
	if rem := offOff % 8; rem != 0 {
		offOff += 8 - rem
	}
	return mappedLayout{
		n: n, m: m, halves: halves, metaLen: metaLen,
		adjOff: adjOff, offOff: offOff,
		fileSize: offOff + 8*int64(n+1) + mappedTrailerLen,
	}
}

// MappedWriter streams a WCCM1 file one vertex at a time, so writers
// never hold the adjacency in memory: internal/store's compaction folds
// a mapped base plus its WAL delta straight into a new snapshot this
// way. Only the O(n) offset array accumulates. Call AddVertex exactly
// n times in vertex order, then Close.
type MappedWriter struct {
	bw      *bufio.Writer
	adjW    io.Writer // tees the adj section into its digest
	adjSum  hash.Hash
	hdrSum  []byte
	layout  mappedLayout
	next    int
	written int64
	offsets []uint64
	scratch []byte
	closed  bool
}

// NewMappedWriter starts a WCCM1 stream for a graph with n vertices and
// m undirected edges (so exactly 2m adjacency halves must follow).
// meta is the opaque header blob, at most MappedMetaLimit bytes.
func NewMappedWriter(w io.Writer, n int, m int64, meta []byte) (*MappedWriter, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: mapped vertex count %d out of range", n)
	}
	if m < 0 || m > math.MaxInt64/8-mappedPage {
		return nil, fmt.Errorf("graph: mapped edge count %d out of range", m)
	}
	if len(meta) > MappedMetaLimit {
		return nil, fmt.Errorf("graph: mapped meta %d bytes exceeds limit %d", len(meta), MappedMetaLimit)
	}
	l := layoutFor(n, m, len(meta))
	page := make([]byte, mappedPage)
	copy(page, mappedMagic)
	for i, v := range []uint64{uint64(n), uint64(m), uint64(l.halves), uint64(l.metaLen), uint64(l.adjOff), uint64(l.offOff), uint64(l.fileSize)} {
		binary.LittleEndian.PutUint64(page[8+8*i:], v)
	}
	copy(page[mappedHeaderLen:], meta)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(page); err != nil {
		return nil, err
	}
	hdrSum := sha256.Sum256(page)
	mw := &MappedWriter{
		bw:      bw,
		adjSum:  sha256.New(),
		hdrSum:  hdrSum[:],
		layout:  l,
		offsets: make([]uint64, 1, n+1),
	}
	mw.adjW = io.MultiWriter(bw, mw.adjSum)
	return mw, nil
}

// AddVertex appends the adjacency of the next vertex: entries must lie
// in [0, n) and be sorted ascending (the canonical Build order —
// duplicates are parallel edges, a self-loop contributes two entries).
func (mw *MappedWriter) AddVertex(neighbors []Vertex) error {
	if mw.closed {
		return fmt.Errorf("graph: mapped AddVertex after Close")
	}
	if mw.next >= mw.layout.n {
		return fmt.Errorf("graph: mapped AddVertex past vertex %d", mw.layout.n-1)
	}
	if need := 4 * len(neighbors); cap(mw.scratch) < need {
		mw.scratch = make([]byte, need)
	}
	buf := mw.scratch[:4*len(neighbors)]
	prev := Vertex(0)
	for i, w := range neighbors {
		if w < 0 || int(w) >= mw.layout.n {
			return fmt.Errorf("graph: mapped vertex %d neighbor %d out of range [0,%d)", mw.next, w, mw.layout.n)
		}
		if i > 0 && w < prev {
			return fmt.Errorf("graph: mapped vertex %d adjacency not sorted (%d after %d)", mw.next, w, prev)
		}
		prev = w
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(w))
	}
	if mw.written += int64(len(neighbors)); mw.written > mw.layout.halves {
		return fmt.Errorf("graph: mapped adjacency exceeds %d halves (m=%d)", mw.layout.halves, mw.layout.m)
	}
	if _, err := mw.adjW.Write(buf); err != nil {
		return err
	}
	mw.next++
	mw.offsets = append(mw.offsets, uint64(mw.written))
	return nil
}

// Close writes the padding, offsets, and digest trailer, and flushes.
func (mw *MappedWriter) Close() error {
	if mw.closed {
		return fmt.Errorf("graph: mapped Close called twice")
	}
	mw.closed = true
	if mw.next != mw.layout.n {
		return fmt.Errorf("graph: mapped stream has %d of %d vertices", mw.next, mw.layout.n)
	}
	if mw.written != mw.layout.halves {
		return fmt.Errorf("graph: mapped stream has %d of %d adjacency halves (m=%d)", mw.written, mw.layout.halves, mw.layout.m)
	}
	var pad [8]byte
	if padLen := mw.layout.offOff - (mw.layout.adjOff + 4*mw.layout.halves); padLen > 0 {
		if _, err := mw.adjW.Write(pad[:padLen]); err != nil {
			return err
		}
	}
	offSum := sha256.New()
	offW := io.MultiWriter(mw.bw, offSum)
	var ob [8]byte
	for _, off := range mw.offsets {
		binary.LittleEndian.PutUint64(ob[:], off)
		if _, err := offW.Write(ob[:]); err != nil {
			return err
		}
	}
	if _, err := mw.bw.Write(mw.hdrSum); err != nil {
		return err
	}
	if _, err := mw.bw.Write(mw.adjSum.Sum(nil)); err != nil {
		return err
	}
	if _, err := mw.bw.Write(offSum.Sum(nil)); err != nil {
		return err
	}
	return mw.bw.Flush()
}

// WriteMapped writes g as a WCCM1 file with no meta blob — the wccgen
// -format mapped output, and the mapped analogue of WriteBinary.
func WriteMapped(w io.Writer, g *Graph) error {
	return WriteMappedView(w, g, g.N(), nil, nil)
}

// WriteMappedView streams the graph "base ∪ delta" on n vertices as a
// WCCM1 file without ever materializing it: each vertex's output list
// is the sorted merge of its (sorted) base adjacency and its (sorted)
// delta half-edges. This is how compaction rewrites an out-of-core
// snapshot — base is the old MappedGraph, delta the WAL batches being
// folded in — in O(n + delta) memory.
func WriteMappedView(w io.Writer, base View, n int, delta []Edge, meta []byte) error {
	m := int64(base.NumEdges()) + int64(len(delta))
	mw, err := NewMappedWriter(w, n, m, meta)
	if err != nil {
		return err
	}
	dOff, dAdj := deltaCSR(n, delta)
	baseN := base.NumVertices()
	var buf, merged []Vertex
	for v := 0; v < n; v++ {
		var bs []Vertex
		if v < baseN {
			if d := base.Degree(Vertex(v)); cap(buf) < d {
				buf = make([]Vertex, d)
			}
			bs = base.Neighbors(Vertex(v), buf[:cap(buf)])
		}
		ds := dAdj[dOff[v]:dOff[v+1]]
		out := bs
		if len(ds) > 0 {
			if cap(merged) < len(bs)+len(ds) {
				merged = make([]Vertex, len(bs)+len(ds))
			}
			out = mergeSorted(merged[:0], bs, ds)
		}
		if err := mw.AddVertex(out); err != nil {
			return err
		}
	}
	return mw.Close()
}

// deltaCSR builds the sorted half-edge CSR of an edge list — the shape
// both Overlay and WriteMappedView need for O(1) per-vertex lookup.
func deltaCSR(n int, edges []Edge) (off []int64, adj []Vertex) {
	off = make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: delta edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj = make([]Vertex, off[n])
	cursor := make([]int64, n)
	for _, e := range edges {
		adj[off[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[off[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		// Most lists of a batch window spread over n vertices hold
		// zero or one half-edge; skip the call for those.
		if off[v+1]-off[v] > 1 {
			slices.Sort(adj[off[v]:off[v+1]])
		}
	}
	return off, adj
}

// mergeSorted appends the sorted merge of a and b to dst.
func mergeSorted(dst, a, b []Vertex) []Vertex {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// MappedSource is what a WCCM1 reader needs from its backing file: the
// subset of internal/fault's Mapping that reads bytes. Bytes() non-nil
// is the zero-copy fast path; otherwise every access goes through
// ReadAt. The graph package depends on the shape, not on the fault
// package, so tests can open in-memory sources.
type MappedSource interface {
	io.ReaderAt
	Bytes() []byte
	Size() int64
}

// hostLittleEndian reports whether this machine can reinterpret the
// file's little-endian sections in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MappedGraph is a read-only View served directly off a WCCM1 source.
// On a little-endian host with a real memory map, Neighbors returns
// subslices of the mapped pages — zero copies, zero heap; otherwise the
// offsets are made resident (O(n)) and Neighbors pread-decodes into the
// caller's buffer. Safe for concurrent use: all state is immutable
// after OpenMappedSource.
//
// Neighbors panics if the underlying source fails mid-read (the file
// was truncated or the device errored after open) — View has no error
// channel, and a half-read adjacency must not be silently served.
type MappedGraph struct {
	src    MappedSource
	layout mappedLayout
	meta   []byte
	// mmap fast path (nil/nil when the pread fallback is active):
	adjMap []Vertex
	offMap []uint64
	// pread fallback: resident offsets.
	offRes []int64
}

// OpenMappedSource validates a WCCM1 source and returns the graph view
// over it. Validation is one sequential pass: all three trailer digests
// are recomputed and compared, every adjacency entry is range-checked,
// and the offset array is checked monotone with the right total — after
// open, Neighbors can serve without per-access checks.
func OpenMappedSource(src MappedSource) (*MappedGraph, error) {
	size := src.Size()
	if size < mappedPage+mappedTrailerLen {
		return nil, fmt.Errorf("graph: mapped file too short (%d bytes)", size)
	}
	var pageBuf [mappedPage]byte
	page, err := sliceOrRead(src, 0, mappedPage, pageBuf[:])
	if err != nil {
		return nil, fmt.Errorf("graph: mapped header: %w", err)
	}
	if string(page[:len(mappedMagic)]) != mappedMagic {
		return nil, fmt.Errorf("graph: not a mapped graph (bad magic)")
	}
	var f [7]uint64
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(page[8+8*i:])
	}
	if f[0] > math.MaxInt32 {
		return nil, fmt.Errorf("graph: mapped vertex count %d out of range", f[0])
	}
	l := layoutFor(int(f[0]), int64(f[1]), int(f[3]))
	if f[1] > math.MaxInt64/8 || f[2] != uint64(l.halves) || f[3] > MappedMetaLimit ||
		f[4] != uint64(l.adjOff) || f[5] != uint64(l.offOff) || f[6] != uint64(l.fileSize) {
		return nil, fmt.Errorf("graph: mapped header inconsistent (n=%d m=%d halves=%d metaLen=%d adjOff=%d offOff=%d fileSize=%d)",
			f[0], f[1], f[2], f[3], f[4], f[5], f[6])
	}
	if l.fileSize != size {
		return nil, fmt.Errorf("graph: mapped file is %d bytes, header says %d", size, l.fileSize)
	}
	trailer := make([]byte, mappedTrailerLen)
	if _, err := src.ReadAt(trailer, l.trailerOff()); err != nil {
		return nil, fmt.Errorf("graph: mapped trailer: %w", err)
	}
	if sum := sha256.Sum256(page); !bytes.Equal(sum[:], trailer[:sha256.Size]) {
		return nil, fmt.Errorf("graph: mapped header digest mismatch (corrupt file)")
	}

	g := &MappedGraph{src: src, layout: l, meta: append([]byte(nil), page[mappedHeaderLen:mappedHeaderLen+int64(l.metaLen)]...)}
	data := src.Bytes()
	useMap := data != nil && hostLittleEndian &&
		uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	if !useMap {
		g.offRes = make([]int64, 0, l.n+1)
	}

	// One streaming pass over the two sections: digest everything,
	// range-check the adjacency, and load/validate the offsets.
	adjSum, offSum := sha256.New(), sha256.New()
	var chunkBuf []byte
	if data == nil {
		chunkBuf = make([]byte, 1<<18)
	}
	prevOff := uint64(0)
	first := true
	err = streamSection(src, data, l.adjOff, l.offOff, chunkBuf, func(chunk []byte) error {
		adjSum.Write(chunk)
		// halves = 2m is even, so the section is exactly 8·m bytes with
		// no padding: every 4-byte word is a real adjacency entry.
		for i := 0; i+4 <= len(chunk); i += 4 {
			if w := binary.LittleEndian.Uint32(chunk[i:]); w >= uint32(l.n) {
				return fmt.Errorf("graph: mapped adjacency entry %d out of range [0,%d)", w, l.n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = streamSection(src, data, l.offOff, l.trailerOff(), chunkBuf, func(chunk []byte) error {
		offSum.Write(chunk)
		for i := 0; i+8 <= len(chunk); i += 8 {
			off := binary.LittleEndian.Uint64(chunk[i:])
			if first {
				if off != 0 {
					return fmt.Errorf("graph: mapped offsets[0] = %d, want 0", off)
				}
				first = false
			} else if off < prevOff {
				return fmt.Errorf("graph: mapped offsets not monotone (%d after %d)", off, prevOff)
			}
			prevOff = off
			if g.offRes != nil {
				g.offRes = append(g.offRes, int64(off))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if prevOff != uint64(l.halves) {
		return nil, fmt.Errorf("graph: mapped offsets[n] = %d, want %d halves", prevOff, l.halves)
	}
	if !bytes.Equal(adjSum.Sum(nil), trailer[sha256.Size:2*sha256.Size]) {
		return nil, fmt.Errorf("graph: mapped adjacency digest mismatch (corrupt file)")
	}
	if !bytes.Equal(offSum.Sum(nil), trailer[2*sha256.Size:]) {
		return nil, fmt.Errorf("graph: mapped offsets digest mismatch (corrupt file)")
	}

	if useMap {
		if l.halves > 0 {
			g.adjMap = unsafe.Slice((*Vertex)(unsafe.Pointer(&data[l.adjOff])), l.halves)
		} else {
			g.adjMap = []Vertex{}
		}
		g.offMap = unsafe.Slice((*uint64)(unsafe.Pointer(&data[l.offOff])), l.n+1)
	}
	return g, nil
}

// sliceOrRead returns [off, off+n) of the source: a subslice when the
// source is byte-backed, a ReadAt into buf otherwise.
func sliceOrRead(src MappedSource, off, n int64, buf []byte) ([]byte, error) {
	if data := src.Bytes(); data != nil {
		return data[off : off+n], nil
	}
	if _, err := src.ReadAt(buf[:n], off); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// streamSection feeds [lo, hi) of the source to fn in chunks that are
// always a multiple of 8 bytes long (so fixed-width decoding never
// straddles a boundary), zero-copy when the source is byte-backed.
func streamSection(src MappedSource, data []byte, lo, hi int64, buf []byte, fn func([]byte) error) error {
	if data != nil {
		return fn(data[lo:hi])
	}
	for off := lo; off < hi; {
		n := int64(len(buf))
		if n > hi-off {
			n = hi - off
		}
		if _, err := src.ReadAt(buf[:n], off); err != nil {
			return fmt.Errorf("graph: mapped read at %d: %w", off, err)
		}
		if err := fn(buf[:n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Meta returns the opaque header blob the writer embedded (nil if
// none). Callers must not modify it.
func (g *MappedGraph) Meta() []byte { return g.meta }

// Mapped reports whether the zero-copy mmap fast path is active (false
// means every Neighbors call is a positioned read).
func (g *MappedGraph) Mapped() bool { return g.adjMap != nil }

// NumVertices returns the number of vertices.
func (g *MappedGraph) NumVertices() int { return g.layout.n }

// NumEdges returns the number of undirected edges (loops count once).
func (g *MappedGraph) NumEdges() int { return int(g.layout.m) }

// Degree returns the degree of v (self-loops contribute 2).
func (g *MappedGraph) Degree(v Vertex) int {
	if g.offMap != nil {
		return int(g.offMap[v+1] - g.offMap[v])
	}
	return int(g.offRes[v+1] - g.offRes[v])
}

// Neighbors returns the adjacency of v: a subslice of the mapped pages
// on the fast path, a decode into buf (grown if needed) on the pread
// fallback. See View for the aliasing contract.
func (g *MappedGraph) Neighbors(v Vertex, buf []Vertex) []Vertex {
	if g.adjMap != nil {
		return g.adjMap[g.offMap[v]:g.offMap[v+1]]
	}
	lo, hi := g.offRes[v], g.offRes[v+1]
	d := int(hi - lo)
	if cap(buf) < d {
		buf = make([]Vertex, d)
	}
	buf = buf[:d]
	if d == 0 {
		return buf
	}
	// Read the little-endian bytes straight into the buffer's memory;
	// on a little-endian host they already are the int32 values.
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), 4*d)
	if _, err := g.src.ReadAt(bb, g.layout.adjOff+4*lo); err != nil {
		panic(fmt.Sprintf("graph: mapped adjacency read for vertex %d failed: %v", v, err))
	}
	if !hostLittleEndian {
		for i := 0; i < d; i++ {
			buf[i] = Vertex(binary.LittleEndian.Uint32(bb[4*i:]))
		}
	}
	return buf
}

// bytesSource adapts an in-memory buffer to MappedSource — ReadMapped
// and tests open WCCM1 images without a file.
type bytesSource struct {
	r    *bytes.Reader
	data []byte
}

// NewBytesSource wraps data as a MappedSource.
func NewBytesSource(data []byte) MappedSource {
	return &bytesSource{r: bytes.NewReader(data), data: data}
}

func (s *bytesSource) ReadAt(p []byte, off int64) (int, error) { return s.r.ReadAt(p, off) }
func (s *bytesSource) Bytes() []byte                           { return s.data }
func (s *bytesSource) Size() int64                             { return int64(len(s.data)) }

// ReadMapped fully decodes a WCCM1 stream into an in-RAM *Graph — the
// symmetric counterpart of WriteMapped for CLI and test use (servers
// keep the file mapped instead; see OpenMappedSource). Beyond the
// digest and range validation open performs, it verifies the file is in
// canonical form — every list sorted, every half mirrored — by
// rebuilding the CSR from the decoded edge multiset and comparing, so
// untrusted input cannot smuggle in a graph that violates the *Graph
// invariants. Allocation is bounded by the input size: every section
// length is validated against the actual byte count before use.
func ReadMapped(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: mapped read: %w", err)
	}
	mg, err := OpenMappedSource(NewBytesSource(data))
	if err != nil {
		return nil, err
	}
	g := MaterializeView(mg)
	if g.M() != mg.NumEdges() {
		return nil, fmt.Errorf("graph: mapped file not canonical (%d edges decoded, header says %d)", g.M(), mg.NumEdges())
	}
	var buf []Vertex
	for v := 0; v < g.N(); v++ {
		if d := mg.Degree(Vertex(v)); cap(buf) < d {
			buf = make([]Vertex, d)
		}
		want := g.Neighbors(Vertex(v), nil)
		got := mg.Neighbors(Vertex(v), buf[:cap(buf)])
		if len(got) != len(want) {
			return nil, fmt.Errorf("graph: mapped file not canonical at vertex %d", v)
		}
		for i := range got {
			if got[i] != want[i] {
				return nil, fmt.Errorf("graph: mapped file not canonical at vertex %d", v)
			}
		}
	}
	return g, nil
}
