package runner

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/cost"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from this build")

const (
	goldenPath  = "testdata/golden.json"
	scalingPath = "../../experiments/scaling_results.json"
)

// goldenEntry is one pinned run. The JSON names match the rows of
// experiments/scaling_results.json, so its rows decode into the same type.
type goldenEntry struct {
	Name          string `json:"name"`
	Spec          Spec   `json:"spec"`
	Fingerprint   string `json:"fingerprint"`
	ElapsedCycles int64  `json:"elapsed_cycles"`
	AppLine       string `json:"app_line"`
}

// scalingRows returns the P<=64 rows of the recorded scaling study.
func scalingRows(t *testing.T) []goldenEntry {
	raw, err := os.ReadFile(scalingPath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Runs []goldenEntry `json:"runs"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", scalingPath, err)
	}
	var rows []goldenEntry
	for _, r := range file.Runs {
		if r.Spec.Procs <= 64 {
			rows = append(rows, r)
		}
	}
	return rows
}

// goldenSpecs lists the pinned configurations: the replay-equivalence
// matrix, the asynchronous LCP variants (absent from it), Gauss-MP over the
// §5.2 ablation's flat and binary trees and over a lossy network (the
// pivot-row stream's per-child charges and its sends through the reliable
// transport), the capped paper-table specs behind the benchmark's mp-tables
// and sm-tables workloads (bench/workloads.go — a separate module this test
// cannot import), and the scaling rows.
func goldenSpecs(scaling []goldenEntry) []NamedSpec {
	specs := EquivalenceMatrix()
	for _, m := range []string{"mp", "sm"} {
		specs = append(specs,
			NamedSpec{"alcp-" + m, Spec{App: "alcp", Machine: m, Procs: 4, Size: 128, Iters: 3}},
			NamedSpec{"alcp-" + m + "-p64", Spec{App: "alcp", Machine: m, Procs: 64, Size: 128, Iters: 2}})
	}
	gauss := Spec{App: "gauss", Machine: "mp", Procs: 8, Size: 64}
	flat, binary, lossy := gauss, gauss, gauss
	flat.Shape, binary.Shape = "flat", "binary"
	lossy.Faults = &cost.FaultsConfig{Seed: 7, DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05}
	specs = append(specs,
		NamedSpec{"gauss-mp-p8-flat", flat},
		NamedSpec{"gauss-mp-p8-binary", binary},
		NamedSpec{"gauss-mp-p8-faults", lossy})
	for _, tb := range []struct {
		app, machine string
		size, iters  int
	}{
		{"em3d", "mp", 200, 8}, {"lcp", "mp", 0, 3}, {"alcp", "mp", 0, 1}, {"gauss", "mp", 0, 0},
		{"em3d", "sm", 200, 3}, {"lcp", "sm", 0, 2}, {"alcp", "sm", 0, 1}, {"gauss", "sm", 0, 0},
	} {
		s := TableSpec(tb.app, tb.machine)
		s.Size, s.Iters = tb.size, tb.iters
		specs = append(specs, NamedSpec{"table/" + tb.app + "-" + tb.machine, s})
	}
	for _, row := range scaling {
		specs = append(specs, NamedSpec{scalingName(row.Spec), row.Spec})
	}
	return specs
}

// scalingName names a scaling row's golden entry.
func scalingName(s Spec) string {
	name := fmt.Sprintf("scaling/%s-%s-p%d", s.App, s.Machine, s.Procs)
	if s.HWCombining {
		name += "-hw"
	}
	return name
}

// loadGolden reads testdata/golden.json, keyed by row name.
func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	golden := make(map[string]goldenEntry, len(entries))
	for _, e := range entries {
		golden[e.Name] = e
	}
	return golden
}

func goldenRun(t *testing.T, name string, spec Spec) goldenEntry {
	t.Helper()
	out, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.Res.Err != nil {
		t.Fatalf("%s aborted: %v", name, out.Res.Err)
	}
	return goldenEntry{Name: name, Spec: spec, Fingerprint: fmt.Sprintf("%#x", out.Fingerprint),
		ElapsedCycles: int64(out.Res.Elapsed), AppLine: out.AppLine}
}

// TestGoldenFingerprints pins the fingerprint, elapsed cycles and answer
// line of every goldenSpecs row to the literals in testdata/golden.json.
// Every other equivalence suite compares two runs of the same build (serial
// against parallel, replay against run), so a change to a body both sides
// share moves them together; this file is the witness that does not move.
// After an intended model change regenerate with
//
//	go test ./internal/runner -run TestGoldenFingerprints -update
func TestGoldenFingerprints(t *testing.T) {
	scaling := scalingRows(t)
	specs := goldenSpecs(scaling)
	if *updateGolden {
		entries := make([]goldenEntry, 0, len(specs))
		for _, ns := range specs {
			entries = append(entries, goldenRun(t, ns.Name, ns.Spec))
		}
		raw, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	golden := loadGolden(t)
	if len(golden) != len(specs) {
		t.Errorf("%s has %d entries, goldenSpecs lists %d: regenerate with -update",
			goldenPath, len(golden), len(specs))
	}
	for _, row := range scaling {
		e := golden[scalingName(row.Spec)]
		if e.Fingerprint != row.Fingerprint || e.ElapsedCycles != row.ElapsedCycles {
			t.Errorf("%s: golden %s/%d cycles, %s records %s/%d", e.Name,
				e.Fingerprint, e.ElapsedCycles, scalingPath, row.Fingerprint, row.ElapsedCycles)
		}
	}

	for _, ns := range specs {
		ns := ns
		want, ok := golden[ns.Name]
		if !ok {
			t.Errorf("%s: no golden entry: regenerate with -update", ns.Name)
			continue
		}
		t.Run(ns.Name, func(t *testing.T) {
			if raceEnabled && ns.Spec.App == "gauss" && ns.Spec.Procs >= 32 {
				t.Skip("paper-scale gauss takes minutes under the race detector")
			}
			t.Parallel()
			got := goldenRun(t, ns.Name, ns.Spec)
			got.Spec = want.Spec // pointer fields; the name ties the row to its spec
			if got != want {
				t.Errorf("\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestStoredStepProcsSpecsRun: specs stored while "step_procs" selected the
// processor form — sweep matrices, WAL submit records, snapshots — still
// decode, validate and run the program they named, for blocking programs
// (which used to reject the field) as for step programs. Each row is its
// golden row's spec with the field set, and must land on that row's literals.
func TestStoredStepProcsSpecsRun(t *testing.T) {
	golden := loadGolden(t)
	for name, blob := range map[string]string{
		"gauss-mp": `{"app":"gauss","machine":"mp","procs":4,"size":48,"step_procs":true}`,
		"mse-mp":   `{"app":"mse","machine":"mp","procs":4,"size":32,"iters":2,"step_procs":true}`,
		"em3d-mp":  `{"app":"em3d","machine":"mp","procs":4,"size":40,"iters":3,"step_procs":true}`,
	} {
		var spec Spec
		if err := json.Unmarshal([]byte(blob), &spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !spec.StepProcs {
			t.Fatalf("%s: step_procs did not decode", name)
		}
		want := golden[name]
		got := goldenRun(t, name, spec) // Run validates
		got.Spec = want.Spec
		if got != want {
			t.Errorf("%s with step_procs:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
