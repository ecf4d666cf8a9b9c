package tables

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/runner"
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

// TestQuickTables builds every group from the quick paper runs: each table
// comes out in Groups order, every Total and step count measures something,
// and no row carries a paper value at reduced scale. A map holding one
// group's runs builds that group alone, as cmd/paper's selection needs.
func TestQuickTables(t *testing.T) {
	outs := map[string]*runner.Outcome{}
	for _, ns := range runner.PaperSpecs(true) {
		out, err := runner.Run(ns.Spec, runner.Options{})
		if err != nil || out.Res.Err != nil {
			t.Fatalf("%s: %v %v", ns.Name, err, out.Res.Err)
		}
		outs[ns.Name] = out
	}
	var want []int
	for _, g := range Groups {
		want = append(want, g.Tables...)
	}
	ts := Build(true, outs)
	if len(ts) != len(want) {
		t.Fatalf("built %d tables, want %d", len(ts), len(want))
	}
	totals := 0
	for i, tb := range ts {
		if tb.ID != want[i] {
			t.Errorf("table %d is %d, want %d", i, tb.ID, want[i])
		}
		for _, r := range tb.Rows {
			if strings.HasSuffix(r.Label, "Total") || r.Label == "Steps to converge" {
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
	if totals != 21 { // 18 Total rows, three step counts
		t.Errorf("%d Total and step rows, want 21", totals)
	}

	gauss := Build(true, map[string]*runner.Outcome{"gauss-mp": outs["gauss-mp"], "gauss-sm": outs["gauss-sm"]})
	if len(gauss) != 4 || gauss[0].ID != 8 || gauss[3].ID != 11 {
		t.Errorf("the Gauss runs alone built %d tables, want Tables 8-11", len(gauss))
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
