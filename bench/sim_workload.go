package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// runOpts is how every simulation in the benchmark executes: serial
// dispatch. Workers=0 (GOMAXPROCS) on the 2-core reference host runs
// EM3D-MP in 14.3 s against 9.7 s serial, so pool mode would mostly measure
// the worker-pool handshake.
var runOpts = runner.Options{Workers: 1}

// simWorkload runs a fixed list of specs once per pass, in an order drawn
// from the seed. The simulator has no random input of its own: the specs,
// not the seed, fix the simulated work, which is what lets two seeds be
// compared bit for bit on every simulated statistic.
type simWorkload struct {
	e      *env
	specs  []simSpec
	extras []simSpec // paper-scale rows run once by verifyFull

	fingerprints map[string]uint64  // first fingerprint seen per spec name
	paperTotals  map[string]float64 // simulated Total (Mcyc) of each paper-scale run
}

func newSimWorkload(e *env, specs, extras []simSpec) *simWorkload {
	w := &simWorkload{
		e:            e,
		specs:        append([]simSpec(nil), specs...),
		fingerprints: make(map[string]uint64),
		paperTotals:  make(map[string]float64),
	}
	if e.smoke {
		for i := range w.specs {
			w.specs[i].spec = smokeSpec(w.specs[i].spec)
		}
	} else {
		w.extras = extras
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(w.specs), func(i, j int) { w.specs[i], w.specs[j] = w.specs[j], w.specs[i] })
	return w
}

// setup validates the specs and runs one untimed pass: it grows the heap to
// its working size and records the fingerprints later passes must repeat.
func (w *simWorkload) setup() error {
	for _, s := range w.specs {
		if err := s.spec.Validate(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	w.pass()
	return nil
}

// pass runs every spec once. Each run starts from a collected heap, as a
// fresh wwtsim process would, so neither its time nor the process's peak
// RSS depends on how far the collector had got with the previous run's
// machine; the pass's wall time is the sum of its runs.
func (w *simWorkload) pass() passStats {
	var ps passStats
	done := w.e.tr.begin("pass")
	for _, s := range w.specs {
		runtime.GC()
		out, d := w.run(s)
		ps.wall += d
		if out != nil {
			ps.totals.add(out, s.spec.Procs)
		}
	}
	done()
	return ps
}

// run executes one spec under a run span and checks its outcome.
func (w *simWorkload) run(s simSpec) (*runner.Outcome, time.Duration) {
	done := w.e.tr.begin("run." + s.name)
	out, err := runner.Run(s.spec, runOpts)
	d := done()
	w.e.sample("run."+s.name, d.Seconds())
	if !checkOutcome(&w.e.chk, s.name, s.spec, out, err) {
		return nil, d
	}
	if first, seen := w.fingerprints[s.name]; !seen {
		w.fingerprints[s.name] = out.Fingerprint
	} else {
		w.e.chk.check(out.Fingerprint == first,
			"%s: fingerprint %#x differs from the first pass's %#x", s.name, out.Fingerprint, first)
	}
	if isPaperScale(s.spec) {
		w.paperTotals[paperKey(s.spec.App, s.spec.Machine)] = out.Res.Summary.TotalCyclesAll() / 1e6
	}
	return out, d
}

// verifyFull runs the checks too slow for every run (the traced run pays
// for them): the paper-scale rows the passes leave out, and each step-form
// spec against its coroutine-form twin (the two forms are
// fingerprint-identical by contract).
func (w *simWorkload) verifyFull() {
	for _, s := range w.extras {
		done := w.e.tr.begin("fidelity." + s.name)
		out, err := runner.Run(s.spec, runOpts)
		done()
		if checkOutcome(&w.e.chk, s.name+" (paper scale)", s.spec, out, err) {
			w.paperTotals[paperKey(s.spec.App, s.spec.Machine)] = out.Res.Summary.TotalCyclesAll() / 1e6
		}
	}
	for _, s := range w.specs {
		if !s.spec.StepProcs {
			continue
		}
		twin := s.spec
		twin.StepProcs = false
		done := w.e.tr.begin("crossform." + s.name)
		out, err := runner.Run(twin, runOpts)
		done()
		if checkOutcome(&w.e.chk, s.name+" (coroutine form)", twin, out, err) {
			w.e.chk.check(out.Fingerprint == w.fingerprints[s.name],
				"%s: coroutine-form fingerprint %#x, step-form %#x", s.name, out.Fingerprint, w.fingerprints[s.name])
		}
	}
}

func (w *simWorkload) close() {}

// checkOutcome applies the per-run correctness checks: no harness or
// application error, the application's own answer check, and the accounting
// identity. It reports whether the outcome is usable.
func checkOutcome(chk *checker, name string, spec runner.Spec, out *runner.Outcome, err error) bool {
	if !chk.check(err == nil && out != nil && out.Res != nil, "%s: runner.Run: %v", name, err) {
		return false
	}
	if !chk.check(out.Res.Err == nil, "%s: run aborted: %v", name, out.Res.Err) {
		return false
	}
	chk.check(appLineOK(out.AppLine, spec.Iters == 0), "%s: application self-check failed: %s", name, out.AppLine)
	chk.check(acctsConsistent(out), "%s: per-processor category cycles do not add up to the run's elapsed time", name)
	return true
}

// appLineOK parses the application's answer line ("maxErr=1e-13",
// "refErr=0 residual=2e-7", "steps=43 residual=9e-7"). maxErr compares
// against a direct solution and must always be tiny; refErr and residual
// measure convergence, so they only bind when the spec lets the iteration
// run to its tolerance.
func appLineOK(line string, converged bool) bool {
	const tol = 1e-6
	for _, tok := range strings.Fields(line) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return false
		}
		switch k {
		case "maxErr", "refErr", "residual":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(x) {
				return false
			}
			if (k == "maxErr" || converged) && x > tol {
				return false
			}
		}
	}
	return true
}

// acctsConsistent checks the accounting identity from outside: every cycle
// a processor advanced is charged to exactly one category, so no
// processor's categories may sum past the run's elapsed time and the
// slowest processor's must sum to exactly it.
func acctsConsistent(out *runner.Outcome) bool {
	var maxTotal int64
	for _, a := range out.Res.Accts {
		var t int64
		for p := 0; p < a.NumPhases(); p++ {
			t += a.TotalCycles(stats.Phase(p))
		}
		if t > maxTotal {
			maxTotal = t
		}
	}
	return maxTotal == int64(out.Res.Elapsed)
}

// --- paper reference totals ---

//go:embed paper_ref.json
var paperRefJSON []byte

type paperTotal struct {
	App       string  `json:"app"`
	Machine   string  `json:"machine"`
	Table     int     `json:"table"`
	TotalMcyc float64 `json:"total_mcyc"`
}

func loadPaperRef() ([]paperTotal, error) {
	var ref struct {
		Source string       `json:"source"`
		Totals []paperTotal `json:"totals"`
	}
	if err := json.Unmarshal(paperRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("paper_ref.json: %w", err)
	}
	return ref.Totals, nil
}

// paperKey names a paper-scale run in paperTotals and in reports.
func paperKey(app, mach string) string { return app + "/" + mach }

// isPaperScale reports whether spec is exactly the configuration behind one
// of the paper's tables (32 processors, default problem size).
func isPaperScale(s runner.Spec) bool {
	return s == runner.TableSpec(s.App, s.Machine)
}

// simErrPct is the mean relative error of the simulated totals against the
// paper's, over the paper-scale runs present in got (keyed "app/machine").
// covered lists what the mean ranges over; with nothing covered it is 0.
func simErrPct(ref []paperTotal, got map[string]float64) (pct float64, covered []string) {
	var sum float64
	for _, r := range ref {
		key := paperKey(r.App, r.Machine)
		if v, ok := got[key]; ok {
			sum += math.Abs(v-r.TotalMcyc) / r.TotalMcyc
			covered = append(covered, key)
		}
	}
	if len(covered) == 0 {
		return 0, nil
	}
	return 100 * sum / float64(len(covered)), covered
}
