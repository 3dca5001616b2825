package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestTraceFileRoundTrip(t *testing.T) {
	batches := [][]graph.Edge{
		{{U: 0, V: 1}, {U: 2, V: 3}},
		{{U: 4, V: 4}},
		nil, // an empty batch survives as an empty batch
		{{U: 9, V: 0}},
	}
	stamps := []time.Duration{0, 100 * time.Millisecond, 250 * time.Millisecond, 7 * time.Second}
	path := filepath.Join(t.TempDir(), "churn.trace")
	if err := writeTraceFile(path, batches, stamps); err != nil {
		t.Fatal(err)
	}
	const want = "# wccstream trace: 4 batches\n@ 0\n0 1\n2 3\n@ 100\n4 4\n@ 250\n@ 7000\n9 0\n"
	if data, err := os.ReadFile(path); err != nil || string(data) != want {
		t.Fatalf("trace file = %q, %v; want %q", data, err, want)
	}
	gotBatches, gotStamps, err := readTraceFile(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStamps, stamps) {
		t.Errorf("stamps = %v, want %v", gotStamps, stamps)
	}
	if len(gotBatches) != len(batches) {
		t.Fatalf("read %d batches, wrote %d", len(gotBatches), len(batches))
	}
	for i := range batches {
		if !slices.Equal(gotBatches[i], batches[i]) {
			t.Errorf("batch %d = %v, want %v", i, gotBatches[i], batches[i])
		}
	}
}

func TestReadTraceFileRejects(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"bad stamp", "@ soon\n0 1\n", "bad timestamp"},
		{"empty stamp", "@\n0 1\n", "bad timestamp"},
		{"edge before stamp", "0 1\n@ 0\n", "before first @"},
		{"bad line before stamp", "# c\nx\n@ 0\n", "before first @"},
		{"bad line in later batch", "# c\n@ 0\n0 1\n@ 5\n\n0 1 2\n", "batch at line 4: graph: batch line 2: want 2 fields"},
		{"three fields", "@ 0\n0 1 2\n", "want 2 fields"},
		{"not a number", "@ 0\n0 x\n", "invalid syntax"},
		{"vertex too large", "@ 0\n0 10\n", "out of range"},
		{"negative vertex", "@ 0\n-1 3\n", "out of range"},
	} {
		path := filepath.Join(t.TempDir(), "bad.trace")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readTraceFile(path, 10); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"40", []int{40}, true},
		{"40, 24,3", []int{40, 24, 3}, true},
		{"40,,3", nil, false},
		{"40,x", nil, false},
	} {
		got, err := parseSizes(tc.in)
		if (err == nil) != tc.ok || (tc.ok && !reflect.DeepEqual(got, tc.want)) {
			t.Errorf("parseSizes(%q) = %v, %v; want %v (ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
