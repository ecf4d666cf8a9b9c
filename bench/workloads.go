package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// workloadDef is one entry of BENCHMARK.json's workload list. Why is the
// one-line reason the workload exists: which layers it loads and which
// optimisation it is the control for.
type workloadDef struct {
	Name string
	Why  string
	// seeded marks a workload whose simulated work depends on the seed, so
	// its exact metrics only repeat between runs on the same seed.
	seeded bool
	new    func(e *env) workload
}

var workloadDefs = []workloadDef{
	{"mp-tables", "P=32 message-passing machine, coroutine form: ni, am, cmmd and private-path memsim carry it; coherence and parmacs run nothing, so it is the control for every shared-memory change", false,
		func(e *env) workload { return newSimWorkload(e, mpTables, paperScaleMP) }},
	{"sm-tables", "P=32 shared-memory machine, coroutine form: shared-path memsim, coherence and parmacs carry it; ni, am and cmmd run nothing, so it is the control for every message-passing change", false,
		func(e *env) workload { return newSimWorkload(e, smTables, paperScaleSM) }},
	{"wide-step", "P=1024 step form, both machines: per-processor work is tiny, so engine dispatch, the event queue, O(P) structures and machine construction dominate; the table workloads are its coroutine-form control", false,
		func(e *env) workload { return newSimWorkload(e, wideStep, nil) }},
	{"svc-write", "sweep service, closed loop, 1 client, distinct specs: cold submits then one batch on a fresh data dir, so WAL appends, fsync and cache puts do the work and the simulator almost none", true,
		func(e *env) workload { return newSvcWorkload(e, svcWrite) }},
	{"svc-read", "sweep service, closed loop, 1 client, repeated specs: cache hits on a populated dir, then drain, reopen and verified resume of one job, so cache gets, WAL recovery and snapshot reads do the work", true,
		func(e *env) workload { return newSvcWorkload(e, svcRead) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workload is what the run loop drives. setup builds everything a pass needs
// from scratch and runs the untimed warm-up; it is called several times so
// setup_s can be a median. pass is one timed unit of work.
type workload interface {
	setup() error
	pass() passStats
	close()
}

// passStats is what one pass did, in host and simulated terms.
type passStats struct {
	wall   time.Duration
	totals simTotals
}

// simTotals accumulates simulated work across runs: processor-cycles, event
// counts and the cycle taxonomy, each weighted by the run's processor count
// (Result.Summary holds per-processor averages).
type simTotals struct {
	procCycles float64 // sum of Elapsed x Procs
	elapsed    float64 // sum of Elapsed
	counts     [stats.NumCounts]float64
	cycles     [stats.NumCategories]float64
}

func (t *simTotals) add(out *runner.Outcome, procs int) {
	p := float64(procs)
	t.procCycles += float64(out.Res.Elapsed) * p
	t.elapsed += float64(out.Res.Elapsed)
	for c := stats.Count(0); c < stats.NumCounts; c++ {
		t.counts[c] += out.Res.Summary.CountsAll(c) * p
	}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		t.cycles[c] += out.Res.Summary.CyclesAll(c) * p
	}
}

func (t *simTotals) merge(o *simTotals) {
	t.procCycles += o.procCycles
	t.elapsed += o.elapsed
	for i := range t.counts {
		t.counts[i] += o.counts[i]
	}
	for i := range t.cycles {
		t.cycles[i] += o.cycles[i]
	}
}

// events is the number of discrete simulated events: every stats.Count
// except the two byte tallies, which measure volume, not occurrences.
func (t *simTotals) events() float64 {
	var n float64
	for c := stats.Count(0); c < stats.NumCounts; c++ {
		if c != stats.CntBytesData && c != stats.CntBytesControl {
			n += t.counts[c]
		}
	}
	return n
}

// env is the state shared by one run of one workload.
type env struct {
	seed    int64
	smoke   bool
	workdir string
	tr      *tracer
	chk     checker
	// series holds named duration samples (seconds or milliseconds, as the
	// metric they feed is defined) appended as the passes run.
	series map[string][]float64
	// recording is off during set-up so warm-up work feeds no metric.
	recording bool
}

func (e *env) sample(name string, v float64) {
	if e.recording {
		e.series[name] = append(e.series[name], v)
	}
}

// checker counts every operation whose outcome is verified and every
// failure. A failure is reported on stderr as it happens, lands in the
// result line's "failed", and makes the process exit non-zero.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
	return ok
}

// --- simulator workloads ---

// simSpec is one named run of a simulator workload.
type simSpec struct {
	name string
	spec runner.Spec
}

func tableSpec(app, mach string, size, iters int) runner.Spec {
	s := runner.TableSpec(app, mach)
	s.Size, s.Iters = size, iters
	return s
}

// The table workloads keep Gauss at the paper's scale (so every pass checks
// the simulated total against Tables 8/9) and cap the iterative apps'
// iterations (EM3D also runs a fifth of its nodes, because its full-size
// shared-memory build alone takes three seconds): the per-iteration layer
// mix is unchanged, and a pass stays near two and a half seconds so a run
// fits several.
var mpTables = []simSpec{
	{"em3d-mp", tableSpec("em3d", "mp", 200, 8)},
	{"lcp-mp", tableSpec("lcp", "mp", 0, 3)},
	{"alcp-mp", tableSpec("alcp", "mp", 0, 1)},
	{"gauss-mp", runner.TableSpec("gauss", "mp")},
}

var smTables = []simSpec{
	{"em3d-sm", tableSpec("em3d", "sm", 200, 3)},
	{"lcp-sm", tableSpec("lcp", "sm", 0, 2)},
	{"alcp-sm", tableSpec("alcp", "sm", 0, 1)},
	{"gauss-sm", runner.TableSpec("gauss", "sm")},
}

// paperScale* are the remaining paper-scale rows of bench/paper_ref.json.
// They run once, in the traced run only, to report apps.sim_err_pct over
// all three applications the paper tabulates totals for.
var paperScaleMP = []simSpec{
	{"lcp-mp", runner.TableSpec("lcp", "mp")},
	{"alcp-mp", runner.TableSpec("alcp", "mp")},
}

var paperScaleSM = []simSpec{
	{"lcp-sm", runner.TableSpec("lcp", "sm")},
	{"alcp-sm", runner.TableSpec("alcp", "sm")},
}

func wideSpec(app, mach string, size, iters int) runner.Spec {
	return runner.Spec{App: app, Machine: mach, Procs: 1024, Size: size, Iters: iters, StepProcs: true}
}

var wideStep = []simSpec{
	{"lcp-mp-p1024", wideSpec("lcp", "mp", 1024, 1)},
	{"lcp-sm-p1024", wideSpec("lcp", "sm", 2048, 1)},
	{"em3d-sm-p1024", wideSpec("em3d", "sm", 8, 2)},
	{"em3d-mp-p1024", wideSpec("em3d", "mp", 8, 6)},
}

// smokeSpec shrinks a spec for -smoke: same app, machine and form, a
// machine and problem small enough to finish in milliseconds.
func smokeSpec(s runner.Spec) runner.Spec {
	if s.Procs > 64 {
		s.Procs = 64
	} else {
		s.Procs = 4
	}
	s.Iters = 2
	switch s.App {
	case "gauss":
		s.Size = 48
	case "em3d":
		s.Size = 8
	default:
		s.Size = 128
	}
	return s
}
