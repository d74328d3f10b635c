// Package experiments implements the reproduction of every table,
// figure and quantitative claim in the AmpNet paper (the per-experiment
// index is All, in registry.go; measured-vs-paper results are recorded
// in EXPERIMENTS.md). Each experiment is a pure function from
// parameters to a Table, shared by cmd/ampbench (which prints them) and
// the root bench_test.go (which times them).
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // experiment id, e.g. "E4"
	Title  string // what the paper claims / shows
	Header []string
	Rows   [][]string
	Notes  []string // caveats, SUBST notes, pass/fail verdicts
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// failed notes a cluster's sticky engine failure, if err is one: the
// caller then adds no row for the dead run.
func failed(t *Table, err error) bool {
	if err != nil {
		t.Note("engine failed: %v", err)
	}
	return err != nil
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(w, "  %s", c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
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
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
