// Package exps regenerates every table and figure of the paper's evaluation.
//
// Each experiment is registered under a short id (table1, table2, table3,
// fig4a, fig4b, fig5a, fig5b, correlated, fig7a, fig7b, fig8, fig9a, fig9b,
// fig10, fig11, toy73) and produces one or more printable Tables with the
// same rows/series the paper reports. The Fidelity knob selects between a
// laptop-quick rendition (shorter simulated videos, fewer repetitions,
// smaller Monte-Carlo budgets) and the paper-scale Full configuration
// (10,000-second videos, 30 repetitions, late fractions resolved to 1e-4).
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured outcomes.
package exps

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Fidelity scales experiment effort.
type Fidelity int

// Fidelity levels.
const (
	// Quick targets interactive runs and the benchmark suite: minutes for
	// the whole set, late fractions resolved to roughly 1e-3.
	Quick Fidelity = iota
	// Full reproduces paper-scale runs; individual experiments can take
	// tens of minutes to hours.
	Full
)

// ParseFidelity maps a CLI string to a Fidelity.
func ParseFidelity(s string) (Fidelity, error) {
	switch strings.ToLower(s) {
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("exps: unknown fidelity %q (want quick or full)", s)
	}
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// FormatCSV writes the table as CSV (id/title as a comment, then header and
// rows) for plotting tools.
func (t *Table) FormatCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	cw := csv.NewWriter(w)
	cw.Write(t.Columns)
	for _, row := range t.Rows {
		cw.Write(row)
	}
	cw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Format writes the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, strings.Repeat("-", wd))
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Short string // one-line description
	Run   func(f Fidelity, seed int64) ([]Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exps: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	// nolint:detsim out is sorted by the unique ID right below, so the
	// result is independent of map iteration order.
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find looks up an experiment by id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// fmtF renders a late fraction the way the paper's log-scale plots read.
func fmtF(f float64) string {
	if f == 0 {
		return "0"
	}
	if f < 0.01 {
		return fmt.Sprintf("%.2e", f)
	}
	return fmt.Sprintf("%.4f", f)
}

// fmtTau renders a required startup delay.
func fmtTau(tau float64) string {
	if tau > 1e8 { // infinity marker
		return ">max"
	}
	return fmt.Sprintf("%.1f", tau)
}
