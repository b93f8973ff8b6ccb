// Package report renders experiment results as aligned ASCII tables and
// CSV files — the textual equivalents of the paper's tables and figure
// data series.
package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title string
	// Name tells apart the tables of one experiment artefact, e.g. in
	// their CSV file names; an artefact's own table leaves it empty.
	Name    string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells, long rows
// are an error caught at render time via panic (a construction bug).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row with %d cells in a %d-column table", len(cells), len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row formatting each value with %v, floats with %.4g.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := len([]rune(cell)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes cells containing
// commas, quotes or newlines).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV writes the table to path, creating parent directories.
func (t *Table) WriteCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// Percent formats a fraction as a percentage with two decimals, e.g.
// 0.0312 → "3.12 %".
func Percent(frac float64) string {
	return fmt.Sprintf("%.2f %%", frac*100)
}

// Markdown renders the table as a GitHub-flavoured Markdown table (title as
// a bold caption line when present).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, cell := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(cell, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
