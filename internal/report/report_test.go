package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/trace"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22")
	s := tb.String()
	if !strings.HasPrefix(s, "Demo\n") {
		t.Errorf("missing title: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("%d lines, want 5: %q", len(lines), s)
	}
	// Columns align: every "value" cell starts at the same offset.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx-2:], "  1") && lines[3][idx] != '1' {
		t.Errorf("misaligned row: %q", lines[3])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("short row not padded: %v", tb.Rows[0])
	}
}

func TestTableLongRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	tb := NewTable("", "a")
	tb.AddRow("1", "2")
}

func TestAddRowfFormats(t *testing.T) {
	tb := NewTable("", "x", "y", "z")
	tb.AddRowf(3, 0.031456, "text")
	row := tb.Rows[0]
	if row[0] != "3" || row[1] != "0.03146" || row[2] != "text" {
		t.Errorf("AddRowf = %v", row)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow(`plain`, `has,comma`)
	tb.AddRow(`has"quote`, "has\nnewline")
	csv := tb.CSV()
	want := "name,note\nplain,\"has,comma\"\n\"has\"\"quote\",\"has\nnewline\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	path := filepath.Join(t.TempDir(), "sub", "out.csv")
	if err := tb.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "a\n1\n" {
		t.Errorf("file = %q", b)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.0315); got != "3.15 %" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(0.491); got != "49.10 %" {
		t.Errorf("Percent = %q", got)
	}
}

func TestSpark(t *testing.T) {
	s := traceFromValues(1, 2, 3, 4, 5, 6, 7, 8)
	got := Spark(s, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("Spark = %q", got)
	}
	// Constant series renders mid-level blocks.
	c := traceFromValues(5, 5, 5, 5)
	mid := Spark(c, 4)
	if len([]rune(mid)) != 4 {
		t.Errorf("constant spark = %q", mid)
	}
	for _, r := range mid {
		if r != '▅' {
			t.Errorf("constant spark rune = %q", string(r))
		}
	}
	// Empty and degenerate inputs.
	if Spark(traceFromValues(), 8) != "" {
		t.Error("empty series spark not empty")
	}
	if Spark(s, 0) != "" {
		t.Error("zero width spark not empty")
	}
	if got := Spark(traceFromValues(42), 1); len([]rune(got)) != 1 {
		t.Errorf("single-sample spark = %q", got)
	}
}

// traceFromValues builds a 1s-period series for spark tests.
func traceFromValues(vals ...float64) *trace.Series {
	return trace.FromValues(time.Second, vals...)
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("Caption", "model", "mean AE")
	tb.AddRow("scaphandre", "3.15 %")
	tb.AddRow("has|pipe", "x")
	md := tb.Markdown()
	want := "**Caption**\n\n| model | mean AE |\n| --- | --- |\n| scaphandre | 3.15 % |\n| has\\|pipe | x |\n"
	if md != want {
		t.Errorf("Markdown = %q, want %q", md, want)
	}
	// No title → no caption line.
	tb2 := NewTable("", "a")
	tb2.AddRow("1")
	if strings.HasPrefix(tb2.Markdown(), "**") {
		t.Error("untitled table rendered a caption")
	}
}
