package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Every experiment must run clean in quick mode and produce a well-formed
// table, and that table must be the one EXPERIMENTS.md holds for it, cell
// for cell outside the wall-clock columns: a change that moves a table
// regenerates the file in the same diff. This is the harness's own
// integration test.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	doc := docTables(t)
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
			got := maskTable(strings.Split(strings.TrimRight(sb.String(), "\n"), "\n"), wallClock[r.ID])
			want := maskTable(doc[r.ID], wallClock[r.ID])
			for i := range max(len(got), len(want)) {
				g, w := "(none)", "(none)"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Errorf("line %d of the table is %q, EXPERIMENTS.md has %q: regenerate it with %s", i+1, g, w, regenerate)
					break
				}
			}
		})
	}
}

// regenerate is the command EXPERIMENTS.md states for itself.
const regenerate = "go run ./cmd/wccbench -quick -ablations | grep -v 'completed in' | cat -s"

// wallClock names, per experiment, the columns whose cells are host
// timings; they are masked when a table is compared with EXPERIMENTS.md.
var wallClock = map[string][]string{
	"E15": {"incrUs", "recomputeUs", "speedup", "mpcResolveUs"},
}

// docTables returns EXPERIMENTS.md's tables by ID: each runs from the line
// "ID — title", as Table.Fprint prints it, to the blank line or fence
// after it.
func docTables(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string][]string{}
	id := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "```") {
			id = ""
		} else if head, _, ok := strings.Cut(line, " — "); ok && id == "" && !strings.HasPrefix(line, " ") {
			id = head
		}
		if id != "" {
			tables[id] = append(tables[id], line)
		}
	}
	return tables
}

// maskTable returns the lines of a printed table with each row of its
// grid reduced to its cells, cut at the columns of the dash line below
// the header and trimmed, so that column widths do not matter; cells of
// the named columns read "*".
func maskTable(lines, masked []string) []string {
	sep := slices.IndexFunc(lines, func(l string) bool {
		return strings.TrimSpace(l) != "" && strings.Trim(l, "- ") == ""
	})
	if sep < 1 {
		return lines
	}
	var spans [][2]int
	dash := []rune(lines[sep])
	for i := 0; i < len(dash); i++ {
		if dash[i] == '-' && (i == 0 || dash[i-1] != '-') {
			spans = append(spans, [2]int{i, i})
		}
		if dash[i] == '-' {
			spans[len(spans)-1][1] = i + 1
		}
	}
	cells := func(line string) []string {
		rs := []rune(line)
		out := make([]string, len(spans))
		for c, sp := range spans {
			end := sp[1]
			if c == len(spans)-1 {
				end = len(rs)
			}
			out[c] = strings.TrimSpace(string(rs[min(sp[0], len(rs)):min(end, len(rs))]))
		}
		return out
	}
	header := cells(lines[sep-1])
	out := slices.Clone(lines[:sep-1])
	for i := sep - 1; i < len(lines); i++ {
		if i == sep {
			continue
		}
		if strings.HasPrefix(lines[i], "  note: ") {
			out = append(out, lines[i:]...)
			break
		}
		row := cells(lines[i])
		if i > sep {
			for c, name := range header {
				if slices.Contains(masked, name) {
					row[c] = "*"
				}
			}
		}
		out = append(out, strings.Join(row, " | "))
	}
	return out
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
	doc := docTables(t)
	for _, r := range append(All(), Ablations()...) {
		if doc[r.ID] == nil {
			t.Errorf("EXPERIMENTS.md has no table headed %q — regenerate it with wccbench -quick -ablations", r.ID+" — ")
		}
	}
}
