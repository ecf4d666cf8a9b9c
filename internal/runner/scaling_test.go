package runner

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/mse"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestScalingSmoke is the CI canary for the large-P dispatcher path: one
// app pair at P=256 must complete, and a checkpoint written at P=256 must
// replay-verify to the same fingerprint, pinning the compacted per-proc
// state encodings at scale.
func TestScalingSmoke(t *testing.T) {
	spec := Spec{App: "em3d", Machine: "mp", Procs: 256, Size: 8, Iters: 2}
	base, err := Run(spec, Options{})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("P=256 run: %v / %v", err, base.Res.Err)
	}

	dir := t.TempDir()
	ck, err := Run(spec, Options{CheckpointEvery: base.Res.Elapsed / 2, CheckpointDir: dir})
	if err != nil || len(ck.Checkpoints) == 0 {
		t.Fatalf("checkpointed P=256 run: %v (%d checkpoints)", err, len(ck.Checkpoints))
	}
	snap, err := snapshot.ReadFile(ck.Checkpoints[0].Path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	re, err := Run(spec, Options{Resume: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !re.Verified {
		t.Fatalf("P=256 checkpoint never replay-verified")
	}
	if re.Fingerprint != base.Fingerprint {
		t.Fatalf("resumed fingerprint %#x != base %#x", re.Fingerprint, base.Fingerprint)
	}
}

// TestScalingSmokeGoroutineHighWater samples the host goroutine count at
// every quantum boundary of a P=256 run of a blocking program (MSE: a step
// program starts no coroutine, so it would pass any bound) and bounds the
// high-water mark. Suspended coroutine processors each hold a (small,
// pooled) goroutine stack, so the honest bound is procs + slack: what the
// check proves is that dispatch spawns nothing per quantum — the
// high-water mark is set at startup and stays flat, instead of growing
// with quanta executed as a spawn-per-handoff dispatcher would.
func TestScalingSmokeGoroutineHighWater(t *testing.T) {
	const procs = 256
	before := runtime.NumGoroutine()
	high := 0
	cfg := cost.Default(procs)
	cfg.OnBuild = func(m any) {
		mm, ok := m.(*machine.MPMachine)
		if !ok {
			t.Fatalf("OnBuild got %T", m)
		}
		mm.Eng.AddQuantumHook(func(sim.Time) {
			if n := runtime.NumGoroutine(); n > high {
				high = n
			}
		})
	}
	par := mse.DefaultParams()
	par.Elems, par.Iters = 4, 1
	out := mse.RunMP(cfg, cmmd.LopSided, par)
	if out.Res.Err != nil {
		t.Fatalf("run aborted: %v", out.Res.Err)
	}
	// One sample can catch a transient goroutine (the runtime's finalizer
	// goroutine counts while it runs a finalizer), which would leave the
	// exact lower bound below unreachable. The base is the lower of the
	// counts before the run and after it, when every coroutine has exited.
	base := min(before, runtime.NumGoroutine())
	bound := base + procs + 16
	if high > bound {
		t.Errorf("goroutine high-water %d exceeds %d (base %d + %d procs + slack): dispatch is spawning per quantum",
			high, bound, base, procs)
	}
	if high < base+procs {
		t.Errorf("goroutine high-water %d below base %d + %d procs: the program ran no coroutines and the bound above proved nothing",
			high, base, procs)
	}

	// Step processors are the O(1)-stack path: a 1024-proc engine made only
	// of step procs must not grow the goroutine count with P at all.
	before = runtime.NumGoroutine()
	high = 0
	eng := sim.NewEngine(100)
	eng.AddQuantumHook(func(sim.Time) {
		if n := runtime.NumGoroutine(); n > high {
			high = n
		}
	})
	for i := 0; i < 1024; i++ {
		k := 0
		eng.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if k == 8 {
				return sim.StepDone
			}
			k++
			p.Compute(100)
			return sim.StepYield
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("step engine: %v", err)
	}
	if bound := before + 8; high > bound {
		t.Errorf("step-proc high-water %d exceeds %d: 1024 step procs must not cost 1024 goroutines", high, bound)
	}
}

// TestScalingSmokeStep1024 is the step-program scaling canary, strong
// enough to run under -race at P=1024: a full step program (every node an
// engine-dispatched state machine) must complete, and its goroutine
// high-water mark must be O(1) — independent of P — where a blocking
// program's is O(P).
func TestScalingSmokeStep1024(t *testing.T) {
	const procs = 1024
	before := runtime.NumGoroutine()
	high := 0
	spec := Spec{App: "em3d", Machine: "mp", Procs: procs, Size: 8, Iters: 2}

	cfg := spec.Config()
	cfg.OnBuild = func(m any) {
		mm, ok := m.(*machine.MPMachine)
		if !ok {
			t.Fatalf("OnBuild got %T", m)
		}
		mm.Eng.AddQuantumHook(func(sim.Time) {
			if n := runtime.NumGoroutine(); n > high {
				high = n
			}
		})
	}
	par := em3d.DefaultParams()
	par.NodesPer, par.Iters = 8, 2
	out := em3d.RunMP(cfg, cmmd.LopSided, par)
	if out.Res.Err != nil {
		t.Fatalf("step run aborted: %v", out.Res.Err)
	}
	// Fixed slack only. No per-proc term — a step machine parks blocked
	// processors as heap state, not stacks.
	if bound := before + 16; high > bound {
		t.Errorf("step-form goroutine high-water %d exceeds %d (base %d + slack): step dispatch must not cost goroutines per proc",
			high, bound, before)
	}
}

// TestProcs4096StepPairsComplete pushes the ported pairs one octave past
// the P=1024 study: every step-ported pair must complete at the Spec limit
// P=4096. Step programs only — 4096
// coroutine stacks are exactly the host cost the step port removes. Heavy
// gated: minutes per pair without the race detector.
func TestProcs4096StepPairsComplete(t *testing.T) {
	if raceEnabled {
		t.Skip("P=4096 completion is verified without -race (see scaling-smoke CI job)")
	}
	if os.Getenv("WWT_SCALING_HEAVY") != "1" {
		t.Skip("P=4096 workload; set WWT_SCALING_HEAVY=1")
	}
	pairs := []Spec{
		{App: "em3d", Machine: "mp", Procs: 4096, Size: 8, Iters: 2},
		{App: "em3d", Machine: "sm", Procs: 4096, Size: 8, Iters: 2},
		{App: "lcp", Machine: "mp", Procs: 4096, Size: 4096, Iters: 2},
		{App: "lcp", Machine: "sm", Procs: 4096, Size: 4096, Iters: 2},
	}
	for _, spec := range pairs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.App, spec.Machine), func(t *testing.T) {
			out, err := Run(spec, Options{})
			if err != nil || out.Res.Err != nil {
				t.Fatalf("P=4096 run: %v / %v", err, out.Res.Err)
			}
		})
	}
}

// TestProcs1024AllPairsComplete runs app pairs at Procs=1024 end to end
// with per-processor-scaled working sets. The linear-work pairs (em3d,
// lcp) always run; the quadratic/cubic-work pairs (mse's body interactions,
// gauss needing N=1024 at P=1024) take minutes to tens of minutes per run
// and run only with WWT_SCALING_HEAVY=1 — the scaling study in
// EXPERIMENTS.md records their results.
func TestProcs1024AllPairsComplete(t *testing.T) {
	pairs := []struct {
		spec  Spec
		heavy bool
	}{
		{Spec{App: "em3d", Machine: "mp", Procs: 1024, Size: 8, Iters: 2}, false},
		{Spec{App: "em3d", Machine: "sm", Procs: 1024, Size: 8, Iters: 2}, false},
		{Spec{App: "lcp", Machine: "mp", Procs: 1024, Size: 2048, Iters: 2}, false},
		{Spec{App: "lcp", Machine: "sm", Procs: 1024, Size: 2048, Iters: 2}, false},
		{Spec{App: "mse", Machine: "mp", Procs: 1024, Size: 1024, Iters: 1}, true},
		{Spec{App: "mse", Machine: "sm", Procs: 1024, Size: 1024, Iters: 1}, true},
		{Spec{App: "gauss", Machine: "mp", Procs: 1024, Size: 1024}, true},
		{Spec{App: "gauss", Machine: "sm", Procs: 1024, Size: 1024}, true},
	}
	if raceEnabled {
		// The race detector's interleaving overhead makes even the
		// linear-work pairs minutes-long at P=1024; race coverage of the
		// scaling dispatcher comes from TestScalingSmoke at P=256.
		t.Skip("P=1024 completion is verified without -race (see scaling-smoke CI job)")
	}
	heavyOn := os.Getenv("WWT_SCALING_HEAVY") == "1"
	for _, tc := range pairs {
		tc := tc
		name := fmt.Sprintf("%s-%s", tc.spec.App, tc.spec.Machine)
		t.Run(name, func(t *testing.T) {
			if tc.heavy && !heavyOn {
				t.Skip("quadratic/cubic workload at P=1024; set WWT_SCALING_HEAVY=1")
			}
			out, err := Run(tc.spec, Options{})
			if err != nil || out.Res.Err != nil {
				t.Fatalf("P=1024 run: %v / %v", err, out.Res.Err)
			}
		})
	}
}
