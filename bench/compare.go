package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifest is /BENCHMARK.json, the contract the driver runs the benchmark
// against. -compare takes its bounds from there, not from this package's
// table, so the file a reviewer reads is the file that decides.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver has one run measure. Sized with the
// workloads so that 4+22x5 runs, their set-up and two builds fit the
// driver's 3420 s with a fifth to spare on the reference host.
const runSeconds = 10

// buildManifest renders this package's tables as BENCHMARK.json, so the
// file is regenerated (wwtbench -manifest), never edited by hand.
func buildManifest() *manifest {
	m := &manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// loadManifest finds BENCHMARK.json from the repository root or from bench/.
func loadManifest() (*manifest, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, lastErr
}

type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one end-to-end metric on one workload: a is the
// parent's values, b the change's. The medians decide when the run-to-run
// spread is inside the bound. When it is not, the result is unresolved —
// not "same" — unless the two sets do not overlap at all.
func judge(a, b []float64, higherIsBetter bool, bound float64) (v verdict, rel, spread float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved, 0, 0
	}
	rel = (mb - ma) / ma // positive = worse, after the flip below
	if higherIsBetter {
		rel = -rel
	}
	spread = quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	if spread > bound {
		sa, sb := sorted(a), sorted(b)
		bLower, bHigher := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
		switch {
		case bLower && !higherIsBetter, bHigher && higherIsBetter:
			return better, rel, spread
		case bHigher && !higherIsBetter, bLower && higherIsBetter:
			return worse, rel, spread
		}
		return unresolved, rel, spread
	}
	switch {
	case rel > bound:
		return worse, rel, spread
	case rel < -bound:
		return better, rel, spread
	}
	return same, rel, spread
}

// compareFiles prints one row per (workload, end-to-end metric) and the
// exact per-layer metrics that changed; it exits non-zero on any "worse".
func compareFiles(pathA, pathB string) int {
	m, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwtbench: BENCHMARK.json:", err)
		return 2
	}
	var fa, fb resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{pathA, &fa}, {pathB, &fb}} {
		b, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(b, f.into)
		}
		if err == nil && f.into.Schema != resultSchema {
			err = fmt.Errorf("schema %q, want %q", f.into.Schema, resultSchema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwtbench: %s: %v\n", f.path, err)
			return 2
		}
	}

	names := make([]string, 0, len(fa.Workloads))
	for n := range fa.Workloads {
		if _, ok := fb.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("A = %s (commit %s, %d runs/workload)\nB = %s (commit %s)\n\n", pathA, fa.Host.Commit, runsOf(&fa), pathB, fb.Host.Commit)
	fmt.Printf("%-11s %-22s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "spread", "bound", "verdict")
	counts := map[verdict]int{}
	for _, n := range names {
		wa, wb := fa.Workloads[n], fb.Workloads[n]
		for _, em := range m.EndToEnd {
			a, b := valuesOf(wa.Untraced, em.Name), valuesOf(wb.Untraced, em.Name)
			if len(a) == 0 || len(b) == 0 || em.Bound == nil {
				continue
			}
			v, rel, spread := judge(a, b, em.Better == "higher", *em.Bound)
			counts[v]++
			fmt.Printf("%-11s %-22s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				n, em.Name, median(a), median(b), 100*rel, 100*spread, 100**em.Bound, v)
		}
		// A simulated speed is only worth its accuracy: state the error
		// against the paper's totals beside it.
		if wa.Traced != nil && wb.Traced != nil && wa.Traced.Metrics["apps.sim_err_pct"].Value != 0 {
			fmt.Printf("%-11s %-22s %11.4g%% %11.4g%%   (simulated totals against the paper's, exact)\n",
				n, "apps.sim_err_pct", wa.Traced.Metrics["apps.sim_err_pct"].Value, wb.Traced.Metrics["apps.sim_err_pct"].Value)
		}
	}

	// Simulated statistics and counts repeat exactly on a deterministic
	// simulator; list every one that did not.
	fmt.Println()
	changed := 0
	for _, n := range names {
		ta, tb := fa.Workloads[n].Traced, fb.Workloads[n].Traced
		if ta == nil || tb == nil {
			continue
		}
		if def, _ := findWorkload(n); def.seeded && ta.Seed != tb.Seed {
			fmt.Printf("exact metrics of %s not compared: its specs are drawn from the seed (%d against %d)\n", n, ta.Seed, tb.Seed)
			continue
		}
		for _, d := range perLayer {
			if d.Exact && ta.Metrics[d.Name].Value != tb.Metrics[d.Name].Value {
				changed++
				fmt.Printf("exact metric changed: %-11s %-32s %.17g -> %.17g %s\n",
					n, d.Name, ta.Metrics[d.Name].Value, tb.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	if changed == 0 {
		fmt.Println("exact metrics (simulated cycles, counts, sim_err_pct): identical on every workload compared")
	}
	fmt.Printf("\n%d same, %d better, %d worse, %d unresolved\n", counts[same], counts[better], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}

func valuesOf(runs []*seededRun, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

func runsOf(f *resultFile) int {
	for _, w := range f.Workloads {
		return len(w.Untraced)
	}
	return 0
}
