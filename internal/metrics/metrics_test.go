package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "hour", "cost")
	tbl.AddRow(1, 4.5)
	tbl.AddRow(2, 48.0)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "hour") || !strings.Contains(out, "48") {
		t.Errorf("unexpected render:\n%s", out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("x", 1.25)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatalf("RenderCSV: %v", err)
	}
	want := "a,b\nx,1.25\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}
