package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every experiment must run clean in quick mode and produce a well-formed
// table; this is the harness's own integration test.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run(Config{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != r.ID {
				t.Errorf("table ID %q, runner ID %q", tab.ID, r.ID)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tab.Columns))
				}
			}
			var sb strings.Builder
			tab.Fprint(&sb)
			if !strings.Contains(sb.String(), r.ID) {
				t.Error("printed table missing ID")
			}
		})
	}
}

// The ablation runners must also run clean in quick mode.
func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	for _, r := range Ablations() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run(Config{Seed: 2, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) < 2 {
				t.Errorf("ablation %s has %d rows, want ≥ 2 variants", r.ID, len(tab.Rows))
			}
		})
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "longcolumn"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"T — demo", "paper claim: c", "longcolumn", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Columns are sized in runes: a non-ASCII header or cell is padded to the
// same width as its column's ASCII neighbours, and each dash rule is as
// wide as its header.
func TestTablePrintingAlignsNonASCII(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"λG", "t/width (≈E[hits])", "n"}}
	tab.AddRow("0.25", "≥ 3", "10")
	tab.AddRow("1", "12", "2000")
	var sb strings.Builder
	tab.Fprint(&sb)
	lines := strings.Split(sb.String(), "\n")[1:5] // header, rule, two rows
	want := []string{
		"  λG    t/width (≈E[hits])  n   ",
		"  ----  ------------------  ----",
		"  0.25  ≥ 3                 10  ",
		"  1     12                  2000",
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// EXPERIMENTS.md at the repository root holds wccbench's quick-size
// tables; every registered experiment and ablation must have one there,
// headed by its ID as Table.Fprint prints it.
func TestExperimentsDocListsEveryID(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headed := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if id, _, ok := strings.Cut(line, " — "); ok {
			headed[id] = true
		}
	}
	for _, r := range append(All(), Ablations()...) {
		if !headed[r.ID] {
			t.Errorf("EXPERIMENTS.md has no table headed %q — regenerate it with wccbench -quick -ablations", r.ID+" — ")
		}
	}
}
