package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestMain lets the smoke test re-execute this test binary as wwtbench: the
// all-workloads mode spawns os.Executable() once per run.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestStatistics(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := percentile(v, 90); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(v, 50); got != 5.5 {
		t.Errorf("p50 = %v, want the median 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	if got := quartileSpread([]float64{13, 10, 11}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("quartileSpread of 3 = %v, want 3/11", got)
	}
}

const cannedTop = `File: wwtbench
Type: cpu
Time: 2026-09-28 22:08:14 UTC
Duration: 1.80s, Total samples = 1.60s (88.9%)
Showing nodes accounting for 1.60s, 100% of 1.60s total
      flat  flat%   sum%        cum   cum%
     0.40s 25.00% 25.00%      0.85s 53.12%  repro/internal/apps/gauss.RunSM.func1
     0.32s 20.00% 45.00%      0.34s 21.25%  repro/internal/memsim.(*Cache).Lookup (inline)
     0.16s 10.00% 55.00%      0.16s 10.00%  runtime.casgstatus
     0.16s 10.00% 65.00%      0.49s 30.62%  repro/internal/sim.(*Engine).Run
     0.08s  5.00% 70.00%      0.08s  5.00%  container/heap.down
     0.08s  5.00% 75.00%      0.08s  5.00%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
     0.08s  5.00% 80.00%      0.08s  5.00%  sync/atomic.(*Int64).Add
     0.08s  5.00% 85.00%      0.08s  5.00%  encoding/json.(*encodeState).marshal
     0.08s  5.00% 90.00%      0.08s  5.00%  repro/internal/cost.Default
     0.08s  5.00% 95.00%      0.08s  5.00%  slices.SortFunc[go.shape.[]repro/internal/serve.BreakdownEntry,go.shape.struct {}]
     0.08s  5.00%   100%      0.08s  5.00%  repro/internal/coherence.(*cohEvent).RunEvent
         0     0%   100%      0.85s 53.12%  repro/internal/machine.(*SMMachine).Run
`

func TestFoldTop(t *testing.T) {
	shares, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"apps": 25, "memsim": 20, "goruntime": 20, "sim": 15, "other": 15, "coherence": 5,
	}
	var sum float64
	for _, l := range layers {
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s.host_share = %v, want %v", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if len(shares) != len(layers) {
		t.Errorf("folded into %d layers, the table has %d", len(shares), len(layers))
	}
	if _, err := foldTop("no table here\n"); err == nil {
		t.Error("foldTop accepted text with no flat/flat% header")
	}
}

func TestSelfTimes(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "pass", Parent: -1, Start: 0, End: msec(100)},
		{Name: "run.a", Parent: 0, Start: msec(10), End: msec(40)},
		{Name: "run.b", Parent: 0, Start: msec(40), End: msec(90)},
		{Name: "poll", Parent: 2, Start: msec(50), End: msec(60)},
		{Name: "poll", Parent: 2, Start: msec(70), End: msec(75)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"pass": msec(20), "run.a": msec(30), "run.b": msec(35), "poll": msec(15)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	if tr.begin("off")(); len(tr.spans) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on = true
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	inner()
	outer()
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 {
		t.Fatalf("spans = %+v, want inner's parent to be outer", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0 {
		t.Fatalf("trace file: %v, %+v", err, doc.TraceEvents)
	}
}

func TestGenSpecs(t *testing.T) {
	const n = 240
	a, b := genSpecs(1, n), genSpecs(1, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different specs")
	}
	if reflect.DeepEqual(a, genSpecs(2, n)) {
		t.Error("seeds 1 and 2 gave the same specs")
	}
	keys := make(map[uint64]bool, n)
	for i, s := range a {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d %+v: %v", i, s, err)
		}
		if s.Procs < 2 || s.Procs > 8 {
			t.Errorf("spec %d has %d processors, want 2-8", i, s.Procs)
		}
		if s.Size%s.Procs != 0 {
			t.Errorf("spec %d: size %d does not divide over %d processors", i, s.Size, s.Procs)
		}
		keys[s.CacheKey()] = true
	}
	if len(keys) != n {
		t.Errorf("%d distinct cache keys among %d specs", len(keys), n)
	}
	// The benchmark's own draw: the two phases of svc-write together.
	if got := len(genSpecs(1, 2*svcJobs)); got != 2*svcJobs {
		t.Errorf("genSpecs returned %d specs, want %d", got, 2*svcJobs)
	}
}

// TestPaperRef checks every entry of paper_ref.json against the paper column
// of the Total row that internal/tables prints at full scale, as recorded in
// the repository's paper_tables.txt.
func TestPaperRef(t *testing.T) {
	ref, err := loadPaperRef()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 6 {
		t.Fatalf("%d totals, want gauss, lcp and alcp on both machines", len(ref))
	}
	printed := printedPaperTotals(t, "../paper_tables.txt")
	for _, r := range ref {
		if r.TotalMcyc <= 0 || (r.Machine != "mp" && r.Machine != "sm") {
			t.Errorf("malformed entry %+v", r)
		}
		if got, ok := printed[r.Table]; !ok || got != r.TotalMcyc {
			t.Errorf("%s/%s: paper_ref.json says Table %d totals %v Mcyc, paper_tables.txt prints %v", r.App, r.Machine, r.Table, r.TotalMcyc, got)
		}
		if !isPaperScale(runner.TableSpec(r.App, r.Machine)) {
			t.Errorf("%s/%s is not a table spec", r.App, r.Machine)
		}
	}
	pct, covered := simErrPct(ref, map[string]float64{"gauss/mp": 60.8, "lcp/sm": 66.0})
	want := 100 * (math.Abs(60.8-71.0) / 71.0) / 2
	if math.Abs(pct-want) > 1e-12 || len(covered) != 2 {
		t.Errorf("simErrPct = %v over %v, want %v over two runs", pct, covered, want)
	}
	if pct, covered := simErrPct(ref, nil); pct != 0 || covered != nil {
		t.Errorf("simErrPct with nothing covered = %v, %v", pct, covered)
	}
}

// printedPaperTotals returns table number -> the paper column of the
// table's "  Total" row.
func printedPaperTotals(t *testing.T, path string) map[int]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[int]float64)
	table := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "Table "); ok {
			num, _, _ := strings.Cut(rest, ":")
			table, _ = strconv.Atoi(num)
			continue
		}
		if fields := strings.Fields(line); strings.HasPrefix(line, "  Total ") && len(fields) == 4 {
			if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
				out[table] = v
			}
		}
	}
	return out
}

// TestManifestMatchesTable keeps /BENCHMARK.json equal to what this package
// defines (regenerate with `wwtbench -manifest`) and inside the limits the
// driver refuses a file beyond.
func TestManifestMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(&onDisk, want) {
		t.Error("BENCHMARK.json differs from the tables in this package; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	for _, w := range want.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	hasSetup := false
	for _, m := range append(append([]manifestMetric(nil), want.EndToEnd...), want.PerLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s in seconds, lower is better")
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", want.RunSeconds)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10} // spread 30% of the median
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"inside the bound", parent, shift(1.05), false, same},
		{"slower by more than the bound", parent, shift(1.2), false, worse},
		{"faster by more than the bound", parent, shift(0.8), false, better},
		{"throughput up", parent, shift(1.2), true, better},
		{"throughput down", parent, shift(0.8), true, worse},
		{"noisy and overlapping", noisy, shift(1.0), false, unresolved},
		{"noisy but separated, slower", noisy, []float64{20, 21, 22}, false, worse},
		{"noisy but separated, faster", noisy, []float64{5, 6, 7}, false, better},
	} {
		if got, _, _ := judge(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAppLineOK(t *testing.T) {
	for _, c := range []struct {
		line      string
		converged bool
		want      bool
	}{
		{"maxErr=1.96e-13", true, true},
		{"maxErr=0.5", false, false},
		{"steps=43 residual=9e-7", true, true},
		{"steps=3 residual=0.105", false, true}, // capped iterations: convergence does not bind
		{"steps=3 residual=0.105", true, false},
		{"refErr=1.09 residual=0.599", false, true},
		{"refErr=NaN residual=0", true, false},
		{"garbage", true, false},
	} {
		if got := appLineOK(c.line, c.converged); got != c.want {
			t.Errorf("appLineOK(%q, converged=%v) = %v, want %v", c.line, c.converged, got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/memsim.(*Cache).Lookup": "repro/internal/memsim",
		"repro/internal/apps/gauss.RunSM.func1": "repro/internal/apps/gauss",
		"runtime.mallocgc":                      "runtime",
		"sync/atomic.(*Int64).Add":              "sync/atomic",
		"slices.SortFunc[go.shape.[]repro/internal/serve.BreakdownEntry,go.shape.struct {}]": "slices",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestSmoke runs every workload end to end, untraced and traced, at reduced
// sizes. Gated like the repository's WWT_SCALING_HEAVY tests: it takes
// seconds, not milliseconds.
func TestSmoke(t *testing.T) {
	if os.Getenv("WWT_BENCH_SMOKE") != "1" {
		t.Skip("set WWT_BENCH_SMOKE=1 to run the end-to-end smoke test")
	}
	out := t.TempDir()
	if code := run([]string{"-smoke", "-seed", "3", "-out", out}); code != 0 {
		t.Fatalf("wwtbench -smoke exited %d", code)
	}
	var rf resultFile
	b, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs {
		w := rf.Workloads[d.Name]
		if w == nil || len(w.Untraced) != 1 || w.Traced == nil {
			t.Fatalf("%s: missing runs in result.json", d.Name)
		}
		for _, r := range []*seededRun{w.Untraced[0], w.Traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", d.Name, r.Correct, r.Attempted, r.Failed)
			}
		}
		if len(w.Untraced[0].Metrics) != len(endToEnd) || len(w.Traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", d.Name,
				len(w.Untraced[0].Metrics), len(w.Traced.Metrics), len(endToEnd), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(out, d.Name+".trace.json")); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}
