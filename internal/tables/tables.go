// Package tables builds every results table of the paper (Tables 4-23)
// from the outcomes of the runs runner.PaperSpecs names, pairing each
// measured quantity with the paper's published value. Absolute agreement
// is not expected — the paper ran on the Wisconsin Wind Tunnel with the
// real CMMD binaries — but the shapes (who wins, dominant categories,
// event-count magnitudes) should hold; EXPERIMENTS.md records the
// comparison.
package tables

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// Row pairs one measured value with the paper's published value. Paper < 0
// means the paper does not report the quantity.
type Row struct {
	Label    string
	Measured float64
	Paper    float64
	Unit     string // "Mcyc", "count", "MB", "cyc/B"
}

// Table is one regenerated paper table.
type Table struct {
	ID    int // the paper's table number
	Title string
	Rows  []Row
}

// Render writes the table with measured-vs-paper columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "Table %d: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "  %-28s %12s %12s %8s\n", "", "measured", "paper", "")
	for _, r := range t.Rows {
		paper := "-"
		if r.Paper >= 0 {
			paper = formatVal(r.Paper, r.Unit)
		}
		fmt.Fprintf(w, "  %-28s %12s %12s %8s\n",
			r.Label, formatVal(r.Measured, r.Unit), paper, r.Unit)
	}
	fmt.Fprintln(w)
}

func formatVal(v float64, unit string) string {
	switch unit {
	case "Mcyc":
		return fmt.Sprintf("%.1f", v)
	case "MB":
		return fmt.Sprintf("%.2f", v)
	case "cyc/B":
		return fmt.Sprintf("%.0f", v)
	default:
		if v >= 1e6 {
			return fmt.Sprintf("%.2fM", v/1e6)
		}
		return fmt.Sprintf("%.0f", v)
	}
}

// Find returns the table with the given paper number from a list.
func Find(ts []Table, id int) *Table {
	for i := range ts {
		if ts[i].ID == id {
			return &ts[i]
		}
	}
	return nil
}

// RenderAll writes every table.
func RenderAll(ts []Table, w io.Writer) {
	for i := range ts {
		ts[i].Render(w)
	}
}

// --- shared row builders ---

const mcyc = 1e6

// mpBreakdownRows builds the paper's message-passing time breakdown
// (computation / local misses / communication split) for one phase set.
func mpBreakdownRows(s *stats.Summary, paper map[string]float64) []Row {
	comm := s.CyclesAll(stats.LibComp) + s.CyclesAll(stats.LibMiss) + s.CyclesAll(stats.NetAccess)
	rows := []Row{
		{"Computation", s.CyclesAll(stats.Comp) / mcyc, getOr(paper, "comp"), "Mcyc"},
		{"Local Misses", (s.CyclesAll(stats.LocalMiss) + s.CyclesAll(stats.TLBMiss)) / mcyc, getOr(paper, "lm"), "Mcyc"},
		{"Communication", comm / mcyc, getOr(paper, "comm"), "Mcyc"},
		{"  Lib Comp", s.CyclesAll(stats.LibComp) / mcyc, getOr(paper, "lib"), "Mcyc"},
		{"  Lib Misses", s.CyclesAll(stats.LibMiss) / mcyc, getOr(paper, "libm"), "Mcyc"},
		{"  Network Access", s.CyclesAll(stats.NetAccess) / mcyc, getOr(paper, "net"), "Mcyc"},
	}
	if v, ok := paper["bar"]; ok {
		rows = append(rows, Row{"Barriers", s.CyclesAll(stats.BarrierWait) / mcyc, v, "Mcyc"})
	}
	rows = append(rows, Row{"Total", s.TotalCyclesAll() / mcyc, getOr(paper, "total"), "Mcyc"})
	return rows
}

// smBreakdownRows builds the shared-memory time breakdown.
func smBreakdownRows(s *stats.Summary, paper map[string]float64) []Row {
	miss := s.CyclesAll(stats.SharedMiss) + s.CyclesAll(stats.LocalMiss) +
		s.CyclesAll(stats.WriteFault) + s.CyclesAll(stats.TLBMiss)
	sync := s.CyclesAll(stats.SyncComp) + s.CyclesAll(stats.SyncMiss) +
		s.CyclesAll(stats.BarrierWait) + s.CyclesAll(stats.LockWait) +
		s.CyclesAll(stats.ReductionWait) + s.CyclesAll(stats.StartupWait)
	rows := []Row{
		{"Computation", s.CyclesAll(stats.Comp) / mcyc, getOr(paper, "comp"), "Mcyc"},
		{"Cache Misses", miss / mcyc, getOr(paper, "miss"), "Mcyc"},
		{"Synchronization", sync / mcyc, getOr(paper, "sync"), "Mcyc"},
	}
	sub := []struct {
		label string
		cat   stats.Category
		key   string
	}{
		{"  Reductions", stats.ReductionWait, "red"},
		{"  Sync Comp", stats.SyncComp, "sc"},
		{"  Sync Miss", stats.SyncMiss, "sm"},
		{"  Locks", stats.LockWait, "locks"},
		{"  Barriers", stats.BarrierWait, "bar"},
		{"  Start-up Wait", stats.StartupWait, "startup"},
	}
	for _, sb := range sub {
		if v, ok := paper[sb.key]; ok {
			rows = append(rows, Row{sb.label, s.CyclesAll(sb.cat) / mcyc, v, "Mcyc"})
		}
	}
	rows = append(rows, Row{"Total", s.TotalCyclesAll() / mcyc, getOr(paper, "total"), "Mcyc"})
	return rows
}

// view reads a run's per-processor averages over one phase, or over every
// phase when all is set.
type view struct {
	s   *stats.Summary
	ph  stats.Phase
	all bool
}

func allPhases(s *stats.Summary) view { return view{s: s, all: true} }

func (v view) cycles(c stats.Category) float64 {
	if v.all {
		return v.s.CyclesAll(c)
	}
	return v.s.Cycles(v.ph, c)
}

func (v view) counts(c stats.Count) float64 {
	if v.all {
		return v.s.CountsAll(c)
	}
	return v.s.Counts(v.ph, c)
}

// mpEventRows builds the per-processor event-count table for MP programs,
// with an Active Messages row when paper has an "am" entry.
func mpEventRows(v view, paper map[string]float64) []Row {
	rows := []Row{
		{"Local Misses", v.counts(stats.CntLocalMisses), getOr(paper, "lm"), "count"},
		{"Channel Writes", v.counts(stats.CntChannelWrites), getOr(paper, "cw"), "count"},
	}
	if am, ok := paper["am"]; ok {
		rows = append(rows, Row{"Active Messages", v.counts(stats.CntActiveMessages), am, "count"})
	}
	return append(rows, trafficRows(v, paper)...)
}

// smEventRows builds the per-processor event-count table for SM programs.
func smEventRows(v view, paper map[string]float64) []Row {
	shL := v.counts(stats.CntSharedMissLocal)
	shR := v.counts(stats.CntSharedMissRemote)
	return append([]Row{
		{"Private Misses", v.counts(stats.CntPrivateMisses) + v.counts(stats.CntLocalMisses), getOr(paper, "priv"), "count"},
		{"Shared Misses", shL + shR, getOr(paper, "shared"), "count"},
		{"  Local", shL, getOr(paper, "shL"), "count"},
		{"  Remote", shR, getOr(paper, "shR"), "count"},
		{"Write Faults", v.counts(stats.CntWriteFaults), getOr(paper, "wf"), "count"},
	}, trafficRows(v, paper)...)
}

// trafficRows ends both event-count tables: bytes transmitted and
// computation cycles per data byte.
func trafficRows(v view, paper map[string]float64) []Row {
	data := v.counts(stats.CntBytesData)
	ctl := v.counts(stats.CntBytesControl)
	cpb := 0.0
	if data > 0 {
		cpb = v.cycles(stats.Comp) / data
	}
	return []Row{
		{"Bytes Transmitted", (data + ctl) / 1e6, getOr(paper, "bytes"), "MB"},
		{"  Data", data / 1e6, getOr(paper, "data"), "MB"},
		{"  Control", ctl / 1e6, getOr(paper, "ctl"), "MB"},
		{"Comp Cycles / Data Byte", cpb, getOr(paper, "cpb"), "cyc/B"},
	}
}
