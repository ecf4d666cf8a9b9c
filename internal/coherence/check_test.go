package coherence_test

// End-to-end tests of the shared-memory robustness layers: the golden
// bit-identical regression (all layers off), the invariant-checker property
// test over all four SM applications, the mutation test proving the checker
// discriminates, deterministic control-message fault injection with NACK
// retry accounting, starvation on an always-NACKing home, and the coherence
// livelock watchdog.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/lcp"
	"repro/internal/apps/mse"
	"repro/internal/coherence"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// smFingerprint is the timing fingerprint of one SM app run: elapsed virtual
// time plus the rounded per-processor averages of the taxonomy rows that
// would move first if the robustness plumbing perturbed the simulation.
type smFingerprint struct {
	name                        string
	elapsed                     int64
	total, comp, miss, bar, msg float64
}

func fingerprintOf(name string, res *machine.Result) smFingerprint {
	s := res.Summary
	return smFingerprint{
		name:    name,
		elapsed: res.Elapsed,
		total:   math.Round(s.TotalCyclesAll()),
		comp:    math.Round(s.CyclesAll(stats.Comp)),
		miss:    math.Round(s.CyclesAll(stats.SharedMiss)),
		bar:     math.Round(s.CyclesAll(stats.BarrierWait)),
		msg:     math.Round(s.CountsAll(stats.CntMessages)),
	}
}

// smGolden holds fingerprints captured from the tree before the robustness
// layers existed. With every layer off, the four SM applications must
// reproduce them bit-for-bit; deviation means the plumbing leaked into the
// lossless timing model.
var smGolden = []smFingerprint{
	{"em3d", 2205154, 2205154, 922400, 662080, 206790, 8392},
	{"gauss", 1187616, 1187616, 370560, 170027, 437782, 2176},
	{"lcp", 526335, 526335, 336720, 76906, 35330, 1084},
	{"mse", 29579485, 29579485, 22569060, 76776, 891933, 1072},
}

// runSMApp runs one of the four golden app configurations, with cfg mutated
// by the caller to arm robustness layers.
func runSMApp(name string, mutate func(*cost.Config)) *machine.Result {
	switch name {
	case "em3d":
		cfg := cost.Default(8)
		if mutate != nil {
			mutate(&cfg)
		}
		return em3d.RunSM(cfg, parmacs.RoundRobin,
			em3d.Params{NodesPer: 100, Degree: 4, RemotePct: 20, Iters: 10, Seed: 1}).Res
	case "gauss":
		cfg := cost.Default(8)
		if mutate != nil {
			mutate(&cfg)
		}
		return gauss.RunSM(cfg, gauss.Params{N: 64, Seed: 1}).Res
	case "lcp":
		cfg := cost.Default(4)
		if mutate != nil {
			mutate(&cfg)
		}
		return lcp.RunSM(cfg, lcp.Params{
			N: 256, NNZ: 16, Sweeps: 2, MaxSteps: 5, Tol: 1e-6,
			Omega: 1.0, LocalFrac: 0.5, DiagFactor: 1.2, Seed: 1,
		}).Res
	case "mse":
		cfg := cost.Default(4)
		if mutate != nil {
			mutate(&cfg)
		}
		return mse.RunSM(cfg, mse.Params{Bodies: 64, Elems: 8, Iters: 3, Seed: 1}).Res
	}
	panic("unknown app " + name)
}

// TestSMAppsBitIdenticalToSeed is the golden regression: with every
// robustness layer off, all four SM applications reproduce the fingerprints
// captured before the layers existed.
func TestSMAppsBitIdenticalToSeed(t *testing.T) {
	for _, want := range smGolden {
		res := runSMApp(want.name, nil)
		if res.Err != nil {
			t.Fatalf("%s: unexpected error: %v", want.name, res.Err)
		}
		if got := fingerprintOf(want.name, res); got != want {
			t.Errorf("%s fingerprint changed:\n got %+v\nwant %+v", want.name, got, want)
		}
	}
}

// TestCheckerCleanOnAllApps is the property test: every SM application, run
// with the invariant checker armed, completes with zero violations — and,
// because the checker is pure inspection, with timing bit-identical to the
// unchecked golden runs.
func TestCheckerCleanOnAllApps(t *testing.T) {
	for _, want := range smGolden {
		res := runSMApp(want.name, func(c *cost.Config) { c.SMCheck = true })
		if res.Err != nil {
			t.Fatalf("%s with checker: %v", want.name, res.Err)
		}
		if got := fingerprintOf(want.name, res); got != want {
			t.Errorf("%s: checker perturbed timing:\n got %+v\nwant %+v", want.name, got, want)
		}
	}
}

// TestCheckerCatchesMutation plants a lost-invalidation protocol bug (the
// cache controller acknowledges an invalidation without invalidating) and
// asserts the checker aborts the run with a structured single-writer
// violation carrying the block's transition history.
func TestCheckerCatchesMutation(t *testing.T) {
	coherence.SetMutation(coherence.MutateSkipInval)
	t.Cleanup(func() { coherence.SetMutation(0) })

	cfg := cost.Default(2)
	cfg.SMCheck = true
	var v memsim.IVec
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			v = n.RT.GMallocIOn(0, 8)
			v.Set(n.Mem, 0, 1)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		if n.ID == 1 {
			v.Get(n.Mem, 0) // take a Shared copy
		}
		n.Barrier()
		if n.ID == 0 {
			// Upgrade: the invalidation of node 1's copy is silently skipped
			// by the mutation, so node 1 keeps a stale Shared copy while
			// node 0 becomes Modified.
			v.Set(n.Mem, 0, 2)
		}
		n.Barrier()
	})
	res := m.Run()
	var inv *coherence.InvariantError
	if !errors.As(res.Err, &inv) {
		t.Fatalf("corrupted protocol not caught: err = %v", res.Err)
	}
	if inv.Rule != "single-writer" {
		t.Errorf("violated rule = %q, want single-writer", inv.Rule)
	}
	if len(inv.History) == 0 {
		t.Errorf("violation report carries no transition history:\n%v", inv)
	}
	if m.Pr.Checker().Violations == 0 {
		t.Errorf("checker counted no violations")
	}
}

// smFaultCfg arms control-message fault injection on cfg.
func smFaultCfg(c *cost.Config, seed uint64, nack, reorder float64) {
	c.SMFaults = &cost.SMFaultsConfig{Seed: seed, NACKRate: nack, ReorderRate: reorder}
}

// TestSMFaultsDeterministic: identical seeds replay identical degraded runs
// bit-for-bit; a different seed diverges. NACK retries appear in the
// separate Dir Retry taxonomy row, not smeared into miss time.
func TestSMFaultsDeterministic(t *testing.T) {
	run := func(seed uint64) (*machine.Result, smFingerprint) {
		res := runSMApp("em3d", func(c *cost.Config) {
			c.SMCheck = true // faults + checker together: still zero violations
			smFaultCfg(c, seed, 0.05, 0.05)
		})
		if res.Err != nil {
			t.Fatalf("faulty em3d run failed: %v", res.Err)
		}
		return res, fingerprintOf("em3d", res)
	}
	resA, fpA := run(7)
	_, fpB := run(7)
	if fpA != fpB {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", fpA, fpB)
	}
	_, fpC := run(8)
	if fpA == fpC {
		t.Errorf("different seeds produced identical runs: %+v", fpA)
	}
	clean := smGolden[0]
	if resA.Elapsed <= clean.elapsed {
		t.Errorf("faults did not slow the run: %d <= clean %d", resA.Elapsed, clean.elapsed)
	}
	s := resA.Summary
	if s.CountsAll(stats.CntNACKs) == 0 || s.CountsAll(stats.CntDirRetries) == 0 {
		t.Errorf("no NACKs/retries counted under 5%% NACK rate")
	}
	if s.CyclesAll(stats.DirRetry) == 0 {
		t.Errorf("retry backoff charged no cycles to the Dir Retry row")
	}
}

// TestNACKStarvationAborts: a home that NACKs every request exhausts the
// requester's retry budget, and the run aborts with the structured
// starvation report instead of livelocking.
func TestNACKStarvationAborts(t *testing.T) {
	cfg := cost.Default(2)
	smFaultCfg(&cfg, 3, 1.0, 0)
	var v memsim.FVec
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		v.Get(n.Mem, 0)
		n.Barrier()
	})
	v = m.RT.GMallocFOn(0, 8) // host-side: the address space is not for concurrent bodies
	res := m.Run()
	var starve *faults.RetryStarvationError
	if !errors.As(res.Err, &starve) {
		t.Fatalf("err = %v, want RetryStarvationError", res.Err)
	}
	if starve.Retries <= 16 {
		t.Errorf("gave up after %d retries, want > budget of 16", starve.Retries)
	}
}

// TestWatchdogReportsStall: with an always-NACKing home and a retry budget
// too large to save it, the coherence watchdog notices that requests stay
// outstanding with no transaction granting for a full window, and aborts
// with a stall report naming each node's last protocol action.
func TestWatchdogReportsStall(t *testing.T) {
	cfg := cost.Default(2)
	smFaultCfg(&cfg, 3, 1.0, 0)
	cfg.SMFaults.RetryBudget = 1 << 20 // never rescued by the budget
	cfg.SMWatchdog = 20000
	var v memsim.FVec
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		v.Get(n.Mem, 0)
		n.Barrier()
	})
	v = m.RT.GMallocFOn(0, 8) // host-side, as in TestNACKStarvationAborts
	res := m.Run()
	var stall *sim.StallError
	if !errors.As(res.Err, &stall) {
		t.Fatalf("err = %v, want StallError", res.Err)
	}
	if stall.Source != "coherence" {
		t.Errorf("stall source = %q, want coherence", stall.Source)
	}
	if stall.Report == "" {
		t.Errorf("stall report is empty")
	}
}

// TestWatchdogQuietOnCleanRuns: a generous watchdog never fires on the
// golden applications, and arming it does not perturb timing.
func TestWatchdogQuietOnCleanRuns(t *testing.T) {
	want := smGolden[2] // lcp: lock-heavy, the likeliest false positive
	res := runSMApp(want.name, func(c *cost.Config) { c.SMWatchdog = 100000 })
	if res.Err != nil {
		t.Fatalf("watchdog fired on a clean run: %v", res.Err)
	}
	if got := fingerprintOf(want.name, res); got != want {
		t.Errorf("watchdog perturbed timing:\n got %+v\nwant %+v", got, want)
	}
}
