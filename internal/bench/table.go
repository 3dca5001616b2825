// Package bench contains the experiment harness: one runner per
// experiment (E1–E15, All) and per design-choice ablation (A1–A4,
// Ablations), each regenerating the paper claim it is named after as a
// printed table. cmd/wccbench drives them and EXPERIMENTS.md at the
// repository root holds its quick-size output; the package's tests run
// the quick versions.
package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks workloads for CI/benchmark loops; full runs are for
	// cmd/wccbench.
	Quick bool
	// Workers selects the simulator execution engine (mpc.Config.Workers
	// semantics: 1 sequential, k > 1 bounded pool, negative GOMAXPROCS).
	// Results are identical for a fixed Seed regardless of the setting.
	Workers int
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns. Widths count runes, not
// bytes, so headers and cells such as "λG" or "≥ 0.5" line up.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "  paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if n := utf8.RuneCountInString(s); n < w {
		return s + strings.Repeat(" ", w-n)
	}
	return s
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(cfg Config) (*Table, error)
}

// All lists every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", "rounds vs n: ours vs O(log n) baselines", E1RoundsVsN},
		{"E2", "rounds vs spectral gap", E2RoundsVsGap},
		{"E3", "regularization (Lemma 4.1)", E3Regularize},
		{"E4", "random-walk structure (Theorem 3)", E4RandomWalk},
		{"E5", "randomization (Lemma 5.1)", E5Randomize},
		{"E6", "quadratic component growth (Lemma 6.7)", E6GrowComponents},
		{"E7", "leader-election equipartition (Lemma 6.4)", E7LeaderElection},
		{"E8", "mildly sublinear memory (Theorem 2)", E8Sublinear},
		{"E9", "query lower bound (Theorem 5)", E9LowerBound},
		{"E10", "random graph properties (Props 2.3–2.5)", E10RandomGraph},
		{"E11", "product spectral bounds (Prop 4.2/C.1)", E11Products},
		{"E12", "oblivious spectral gap (Corollary 7.1)", E12Oblivious},
		{"E13", "vs diameter-parametrized baseline (§1.3)", E13VsExponentiation},
		{"E14", "balls and bins (Prop B.1)", E14BallsBins},
		{"E15", "incremental append vs full recompute", E15Incremental},
	}
}
