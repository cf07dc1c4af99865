// Package experiments implements the reproduction harness: one runner
// per experiment (E1–E12), each regenerating the figure panel or prose
// claim it reproduces and returning a printable table. `go run
// ./cmd/experiments` prints them all; bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's result in paper-style rows.
type Table struct {
	ID    string
	Title string
	// Claim is the paper statement being reproduced.
	Claim  string
	Header []string
	Rows   [][]string
	// Findings summarize pass/fail against the structural expectation.
	Findings []string
}

// Add appends a row, stringifying the cells.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Findingf records a formatted finding line.
func (t *Table) Findingf(format string, args ...any) {
	t.Findings = append(t.Findings, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
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
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(&b, strings.TrimRight(strings.Join(parts, "  "), " "))
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
	for _, f := range t.Findings {
		fmt.Fprintf(&b, "=> %s\n", f)
	}
	return b.String()
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(seed int64) (*Table, error)
}

// registry holds all experiments, keyed by ID.
var registry = map[string]Runner{}

func register(r Runner) { registry[r.ID] = r }

// All returns every registered experiment ordered by ID (E1, E2, ...,
// E10 sorts numerically).
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

// Get returns one experiment by ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[strings.ToUpper(id)]
	return r, ok
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}
