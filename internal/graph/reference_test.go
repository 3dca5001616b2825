package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// referenceReadEdgeListLimit is the original bufio.Scanner parser of
// ReadEdgeListLimit, kept verbatim as the oracle of
// FuzzReadEdgeListMatchesReference: the in-place parser must accept and
// reject exactly what this accepts and rejects, with the same graphs and
// errors. The one intended difference is a line over the 1 MiB limit,
// which this reports as a bare bufio.ErrTooLong without its line number.
func referenceReadEdgeListLimit(r io.Reader, maxVertices, maxEdges int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		b      *Builder
		parsed int
		m      int
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		c, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if b == nil {
			if a < 0 || c < 0 {
				return nil, fmt.Errorf("graph: line %d: negative header", lineNo)
			}
			// The header is untrusted until the edge count has been
			// verified: reject vertex counts past the caller's limit (or
			// past what any Vertex can index), and treat the edge count
			// only as a capacity hint, clamped so a typo'd or hostile
			// header cannot force a huge allocation before the first
			// edge line is even read.
			limit := maxVertices
			if limit <= 0 || limit > math.MaxInt32 {
				limit = math.MaxInt32
			}
			if a > limit {
				return nil, fmt.Errorf("graph: line %d: vertex count %d exceeds limit %d", lineNo, a, limit)
			}
			if maxEdges > 0 && c > maxEdges {
				return nil, fmt.Errorf("graph: line %d: edge count %d exceeds limit %d", lineNo, c, maxEdges)
			}
			hint := c
			if hint > maxEdgeHint {
				hint = maxEdgeHint
			}
			b = NewBuilderHint(a, hint)
			m = c
			continue
		}
		if a < 0 || a >= b.N() || c < 0 || c >= b.N() {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range [0,%d)", lineNo, a, c, b.N())
		}
		if maxEdges > 0 && parsed >= maxEdges {
			return nil, fmt.Errorf("graph: line %d: more than %d edges", lineNo, maxEdges)
		}
		b.AddEdge(Vertex(a), Vertex(c))
		parsed++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if parsed != m {
		return nil, fmt.Errorf("graph: header promised %d edges, got %d", m, parsed)
	}
	return b.Build(), nil
}

// referenceReadEdgeBatch is the original bufio.Scanner parser of
// ReadEdgeBatch, kept verbatim as the oracle of FuzzReadEdgeBatch, which
// names the intended differences.
func referenceReadEdgeBatch(r io.Reader, maxVertex, maxEdges int) ([]Edge, error) {
	if maxEdges <= 0 {
		return nil, fmt.Errorf("graph: batch edge limit %d rejects all batches", maxEdges)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	hint := maxEdges
	if hint > maxEdgeHint {
		hint = maxEdgeHint
	}
	edges := make([]Edge, 0, min(hint, 64))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: batch line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: batch line %d: %w", lineNo, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: batch line %d: %w", lineNo, err)
		}
		if u < 0 || u >= maxVertex || v < 0 || v >= maxVertex {
			return nil, fmt.Errorf("graph: batch line %d: edge (%d,%d) out of range [0,%d)", lineNo, u, v, maxVertex)
		}
		if len(edges) >= maxEdges {
			return nil, fmt.Errorf("graph: batch line %d: more than %d edges", lineNo, maxEdges)
		}
		edges = append(edges, Edge{U: Vertex(u), V: Vertex(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}
