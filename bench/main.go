// Command wwtbench is the repository's one benchmark: the simulator and the
// sweep service measured end to end and layer by layer, from outside, with
// no change to the code under test.
//
//	wwtbench --workload W --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints one JSON result line (the
// contract in /BENCHMARK.json): --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones from a traced, profiled run. With no
// --workload it runs every workload both ways in sequential subprocesses and
// writes result.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:])) }

// setupRepeats is how many times a run sets up from scratch; setup_s is the
// median, so one slow page-fault storm does not read as a regression.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	workdir  string
}

func run(args []string) int {
	fs := flag.NewFlagSet("wwtbench", flag.ContinueOnError)
	var o options
	var trace, runs int
	var workloads string
	var compare, printManifest bool
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and print one JSON result line")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced, profiled run")
	fs.StringVar(&workloads, "workloads", "", "comma-separated workloads for the all-workloads report (default: all)")
	fs.IntVar(&runs, "runs", 1, "untraced runs per workload in the all-workloads report, on seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", defaultOut(), "directory for result.json, traces and profiles")
	fs.StringVar(&o.workdir, "workdir", "", "directory for the service's data dirs; its filesystem is recorded (default: <out>/work)")
	fs.BoolVar(&o.smoke, "smoke", false, "reduced sizes, one pass, no probes' full counts: checks the harness, not performance")
	fs.BoolVar(&compare, "compare", false, "compare two result files: wwtbench -compare A.json B.json")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as this build defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workdir == "" {
		o.workdir = filepath.Join(o.out, "work")
	}
	o.trace = trace != 0

	switch {
	case printManifest:
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
		return 0
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: wwtbench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case o.workload != "":
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wwtbench:", err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	default:
		return runAll(o, workloads, runs)
	}
}

// defaultOut is bench/out whether the command runs from the repository root
// (as run.sh does) or from bench/ itself.
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// result is the line the contract asks for: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload is one run of one workload in this process.
func runWorkload(o options) (*result, error) {
	processStart := time.Now()
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.smoke {
		o.seconds = 0 // one pass
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	workdir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	e := &env{seed: o.seed, smoke: o.smoke, workdir: workdir, tr: newTracer(), series: make(map[string][]float64)}
	ref, err := loadPaperRef()
	if err != nil {
		return nil, err
	}
	w := def.new(e)
	defer w.close()

	// Set-up, several times over. The traced run reports no setup_s, so it
	// sets up once.
	repeats := setupRepeats
	if o.trace || o.smoke {
		repeats = 1
	}
	// setup_s is everything before the first timed pass: the one-off prelude
	// (flags, spec generation, direct reference runs) plus the repeatable
	// set-up, the latter as a median.
	prelude := time.Since(processStart).Seconds()
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Timed passes. A traced run times its first pass untraced, as the
	// reference trace_overhead_pct compares against, then switches the
	// tracer and the CPU profiler on for the rest.
	var prof *cpuProfile
	var refWall float64
	var walls, rates []float64
	var totals simTotals
	var m0, m1 runtime.MemStats // allocation counters around the traced passes
	loopStart := time.Now()
	for pass := 0; ; pass++ {
		e.recording = !o.trace || pass > 0 // per-layer numbers come from traced passes only
		if o.trace && pass == 1 {
			runtime.ReadMemStats(&m0)
			e.tr.on = true
			if prof, err = startCPUProfile(filepath.Join(o.out, o.workload+".cpu.pprof")); err != nil {
				return nil, err
			}
		}
		ps := w.pass()
		if o.trace && pass == 0 {
			refWall = ps.wall.Seconds()
		} else {
			walls = append(walls, ps.wall.Seconds())
			rates = append(rates, ps.totals.procCycles/1e6/ps.wall.Seconds())
			totals.merge(&ps.totals)
		}
		if e.chk.failed > 0 {
			break // the numbers would describe a broken run
		}
		if len(walls) > 0 && time.Since(loopStart).Seconds() >= o.seconds {
			break
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no pass completed: %d of %d checked operations failed", e.chk.failed, e.chk.attempted)
	}
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	e.chk.check(rss > 0, "VmHWM unreadable from /proc/self/status")
	e.recording = false

	var shares map[string]float64
	if prof != nil {
		shares, err = prof.stopAndFold()
		e.chk.check(err == nil, "fold cpu profile: %v", err)
	}
	sw, isSim := w.(*simWorkload)
	if isSim && o.trace {
		e.tr.on = true
		sw.verifyFull()
		e.tr.on = false
	}

	res := &result{}
	reportHeader(o, readHost(o.workdir))
	if !o.trace {
		set := newMetricSet(endToEnd)
		set.set("wall_s", median(walls))
		set.set("proc_mcyc_per_host_s", median(rates))
		set.set("peak_rss_mb", rss)
		set.set("setup_s", prelude+median(setups))
		res.Metrics = set.contractJSON()
		reportMetrics(set, map[string]int{"wall_s": len(walls), "proc_mcyc_per_host_s": len(rates), "peak_rss_mb": 1, "setup_s": len(setups)})
		if isSim {
			pct, covered := simErrPct(ref, sw.paperTotals)
			note("sim_err_pct %.2f %% against the paper's totals, over %s (the traced run covers lcp and alcp too)", pct, orNone(covered))
		}
		reportSeries(e.series)
	} else {
		set := newMetricSet(perLayer)
		n := float64(len(walls))
		perLayerFromPasses(set, e.series, &totals, n, median(walls))
		for l, v := range shares {
			set.set(l+".host_share", v)
		}
		set.set("runner.allocs_per_pass", float64(m1.Mallocs-m0.Mallocs)/n)
		set.set("runner.alloc_mb_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc)/n/(1<<20))
		set.set("runner.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/n/1e6)
		if refWall > 0 {
			set.set("trace_overhead_pct", 100*(median(walls)/refWall-1))
		}
		if isSim {
			pct, covered := simErrPct(ref, sw.paperTotals)
			set.set("apps.sim_err_pct", pct)
			note("apps.sim_err_pct ranges over %s", orNone(covered))
		}
		runProbes(e, set, filepath.Join(workdir, "probes"))
		res.Metrics = set.contractJSON()
		reportMetrics(set, nil)
		reportSeries(e.series)
		tracePath := filepath.Join(o.out, o.workload+".trace.json")
		if err := e.tr.writeChrome(tracePath); err != nil {
			return nil, err
		}
		note("%d spans written to %s; self time by span name:", len(e.tr.spans), tracePath)
		reportSelfTimes(selfTimes(e.tr.spans))
	}
	res.Attempted, res.Failed = e.chk.attempted, e.chk.failed
	res.Correct = res.Failed == 0
	note("pass walls (s): %.4g", walls)
	note("%d passes, %d operations checked, %d failed", len(walls), res.Attempted, res.Failed)
	return res, nil
}

// perLayerFromPasses fills the metrics that come from the traced passes:
// span medians, service latencies, simulated counts and the taxonomy.
func perLayerFromPasses(ms *metricSet, series map[string][]float64, t *simTotals, passes, wall float64) {
	for _, n := range runNames {
		ms.set("apps."+n+".wall_s", median(series["run."+n]))
	}
	for metric, s := range map[string]string{
		"serve.submit_ack_ms": "submit_ack", "serve.poll_ms": "poll", "serve.overhead_ms": "overhead",
		"serve.drain_ms": "drain", "serve.recover_ms": "recover", "serve.restart_s": "restart",
		"serve.cold_p50_ms": "cold", "serve.hit_p50_ms": "hit", "serve.batch_jobs_per_s": "batch_jobs_per_s",
	} {
		ms.set(metric, median(series[s]))
	}
	_, coldTail := tailOf(series["cold"])
	_, hitTail := tailOf(series["hit"])
	ms.set("serve.cold_tail_ms", coldTail)
	ms.set("serve.hit_tail_ms", hitTail)

	perPass := func(v float64) float64 { return v / passes }
	events := perPass(t.events())
	ms.set("runner.sim_events", events)
	if events > 0 {
		ms.set("runner.host_ns_per_event", wall*1e9/events)
	}
	ms.set("runner.sim_elapsed_mcyc", perPass(t.elapsed)/1e6)
	ms.set("ni.packets", perPass(t.counts[stats.CntMessages]))
	ms.set("am.active_messages", perPass(t.counts[stats.CntActiveMessages]))
	ms.set("cmmd.channel_writes", perPass(t.counts[stats.CntChannelWrites]))
	ms.set("cmmd.data_mb", perPass(t.counts[stats.CntBytesData])/1e6)
	ms.set("memsim.local_misses", perPass(t.counts[stats.CntLocalMisses]+t.counts[stats.CntPrivateMisses]+t.counts[stats.CntLibMisses]))
	ms.set("memsim.tlb_misses", perPass(t.counts[stats.CntTLBMisses]))
	ms.set("coherence.shared_misses_local", perPass(t.counts[stats.CntSharedMissLocal]))
	ms.set("coherence.shared_misses_remote", perPass(t.counts[stats.CntSharedMissRemote]))
	ms.set("coherence.write_faults", perPass(t.counts[stats.CntWriteFaults]))

	// The paper's taxonomy: every category belongs to exactly one group.
	var total float64
	sums := make(map[string]float64, 4)
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		sums[taxonomyGroup(c)] += t.cycles[c]
		total += t.cycles[c]
	}
	if total > 0 {
		for g, v := range sums {
			ms.set(g, 100*v/total)
		}
	}
}

// taxonomyGroup names the cycle-share metric a category counts towards.
func taxonomyGroup(c stats.Category) string {
	switch c {
	case stats.Comp:
		return "apps.compute_cyc_share"
	case stats.LocalMiss, stats.TLBMiss, stats.SharedMiss, stats.WriteFault:
		return "memsim.miss_cyc_share"
	case stats.LibComp, stats.LibMiss, stats.NetAccess, stats.LibRetrans:
		return "cmmd.comm_cyc_share"
	}
	// Barriers, locks, reductions, start-up wait, sync computation and
	// misses, directory retries.
	return "parmacs.sync_cyc_share"
}

func orNone(s []string) string {
	if len(s) == 0 {
		return "no paper-scale run in this workload"
	}
	return strings.Join(s, ", ")
}

// --- the printed report (stderr; stdout carries only the result line) ---

func reportHeader(o options, h hostInfo) {
	kind := "untraced (end-to-end)"
	if o.trace {
		kind = "traced (per-layer)"
	}
	fmt.Fprintf(os.Stderr, "\n== %s  seed %d  %.0f s  %s ==\n", o.workload, o.seed, o.seconds, kind)
	fmt.Fprintf(os.Stderr, "host: %d cpus (GOMAXPROCS %d), %s, %s, commit %s, workdir on %s\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit, h.WorkdirFS)
}

func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
}

// reportMetrics prints every metric of the set by name with its unit; samples
// gives the sample count behind a value where there is one.
func reportMetrics(ms *metricSet, samples map[string]int) {
	for _, d := range ms.defs {
		n := ""
		if c, ok := samples[d.Name]; ok {
			n = fmt.Sprintf("  (median of %d)", c)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-7s%s\n", d.Name, ms.values[d.Name], d.Unit, n)
	}
}

// reportSeries prints each sample series as a median and the highest
// percentile with at least ten samples beyond it.
func reportSeries(series map[string][]float64) {
	names := make([]string, 0, len(series))
	for k := range series {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := series[k]
		p, tail := tailOf(v)
		fmt.Fprintf(os.Stderr, "  series %-24s n=%-5d p50 %10.4g  p%.0f %10.4g\n", k, len(v), median(v), p, tail)
	}
}

func reportSelfTimes(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "    %-28s %10.3f ms\n", k, millis(self[k]))
	}
}
