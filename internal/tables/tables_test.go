package tables

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderFormatsPaperAndMissingValues(t *testing.T) {
	tb := Table{ID: 4, Title: "demo", Rows: []Row{
		{Label: "Computation", Measured: 12.345, Paper: 10.0, Unit: "Mcyc"},
		{Label: "Unreported", Measured: 7, Paper: -1, Unit: "count"},
		{Label: "Bytes", Measured: 1.234, Paper: 1.1, Unit: "MB"},
	}}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 4: demo") {
		t.Errorf("missing header in %q", out)
	}
	if !strings.Contains(out, "12.3") || !strings.Contains(out, "10.0") {
		t.Errorf("Mcyc row misformatted: %q", out)
	}
	// Unreported paper values render as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for unreported value: %q", out)
	}
}

func TestFind(t *testing.T) {
	ts := []Table{{ID: 4}, {ID: 5}}
	if Find(ts, 5) == nil || Find(ts, 5).ID != 5 {
		t.Error("Find failed")
	}
	if Find(ts, 99) != nil {
		t.Error("Find invented a table")
	}
}

// TestQuickTables builds the Gauss and ablation groups at Quick scale, where
// no row may carry a paper value.
func TestQuickTables(t *testing.T) {
	ts := append(Gauss(Quick), Ablations(Quick)...)
	for _, id := range []int{8, 9, 10, 11, -52, -534} {
		if Find(ts, id) == nil {
			t.Errorf("table %d missing", id)
		}
	}
	totals := 0
	for _, tb := range ts {
		for _, r := range tb.Rows {
			if strings.HasSuffix(r.Label, "Total") {
				totals++
				if !(r.Measured > 0) {
					t.Errorf("table %d %q measures %v", tb.ID, r.Label, r.Measured)
				}
			}
			if r.Paper != -1 {
				t.Errorf("table %d %q has paper value %v at Quick scale", tb.ID, r.Label, r.Paper)
			}
		}
	}
	if totals != 4 { // Tables 8 and 9, and the flush ablation's two runs
		t.Errorf("%d Total rows, want 4", totals)
	}
}

func TestFormatVal(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{12.34, "Mcyc", "12.3"},
		{1.236, "MB", "1.24"},
		{78.4, "cyc/B", "78"},
		{1234, "count", "1234"},
		{2.5e6, "count", "2.50M"},
	}
	for _, c := range cases {
		if got := formatVal(c.v, c.unit); got != c.want {
			t.Errorf("formatVal(%v, %s) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}
