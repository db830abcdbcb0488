// Package metrics collects and renders the measurements the evaluation
// reports: iteration times, blocked-communication time, utilization, and
// formatted tables matching the paper's figures.
package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"

	"coarse/internal/sim"
)

// Mean returns the arithmetic mean of a series, 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders experiment output in the aligned text format the
// harness prints for each figure.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	cols := make([]string, len(columns))
	for i, c := range columns {
		cols[i] = validText(c)
	}
	return &Table{Title: validText(title), Columns: cols}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = validText(v)
		default:
			row[i] = validText(fmt.Sprint(v))
		}
	}
	t.rows = append(t.rows, row)
}

// validText normalizes a string to valid UTF-8 so a table always holds
// exactly what its JSON wire form round-trips: encoding/json replaces
// invalid bytes with U+FFFD on marshal, so admitting them here would
// make Marshal∘Unmarshal lossy (found by FuzzTableRoundTrip).
func validText(s string) string {
	return strings.ToValidUTF8(s, "�")
}

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string { return t.rows }

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.4g", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

// tableJSON is Table's wire form.
type tableJSON struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON renders the table as {"title", "columns", "rows"} for
// machine consumption (coarsebench -json).
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{t.Title, t.Columns, rows})
}

// UnmarshalJSON restores a table from its wire form, so -json output
// round-trips back into renderable tables.
func (t *Table) UnmarshalJSON(data []byte) error {
	var w tableJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	t.Title = w.Title
	t.Columns = w.Columns
	t.rows = w.Rows
	if len(t.rows) == 0 {
		t.rows = nil
	}
	return nil
}

// Result is one machine-readable run record: identifying labels plus
// numeric metric values. The experiment harness attaches one Result per
// simulation cell to coarsebench's -json output so downstream tooling
// (regression gates, perf-trajectory tracking) can consume runs without
// scraping rendered tables. Maps marshal with sorted keys, so encoding
// is deterministic.
type Result struct {
	ID     string             `json:"id"`
	Labels map[string]string  `json:"labels,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Extra  map[string]string  `json:"extra,omitempty"`
	Err    string             `json:"error,omitempty"`
}

// GBps formats a bytes/sec value as GB/s for table cells.
func GBps(v float64) string { return fmt.Sprintf("%.2f GB/s", v/1e9) }

// Ms formats a sim duration as milliseconds.
func Ms(t sim.Time) string { return fmt.Sprintf("%.3f ms", float64(t)/1e6) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Speedup formats a speedup factor as the paper quotes them.
func Speedup(v float64) string { return fmt.Sprintf("%.2fx", v) }
