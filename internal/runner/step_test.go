package runner

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/stats"
)

// The suites in this file were the cross-form matrix: every row ran once as
// coroutines and once as step processors and the two had to agree. The
// processor form is no longer a choice — a step program runs as step
// processors — so there is no second form, and each row now runs the
// program once per worker count. The test names, which the recorded test
// floor lists row by row, stay; what a row checks is what it checked besides
// the option:
//
//   - Workers=w reproduces the serial run bit for bit, for the step programs
//     at P=16..256, under both fault plans and with hardware combining
//     (TestParallelDeterminismMatrix holds the same kinds of row at P=4);
//   - a spec that still carries the decode-only "step_procs" field, as
//     stored sweep matrices, WAL records and snapshots do, runs the program
//     it names: the serial reference omits the field, every compared run
//     sets it.

// stepPairs are the app/machine pairs written as step programs. Sizes are
// kept small: the matrix below multiplies them by three processor counts
// and two worker counts, under the race detector.
var stepPairs = []NamedSpec{
	{"em3d-mp", Spec{App: "em3d", Machine: "mp", Size: 8, Iters: 2}},
	{"em3d-sm", Spec{App: "em3d", Machine: "sm", Size: 8, Iters: 2}},
	{"lcp-mp", Spec{App: "lcp", Machine: "mp", Size: 1024, Iters: 3}},
	{"lcp-sm", Spec{App: "lcp", Machine: "sm", Size: 1024, Iters: 3}},
	{"alcp-mp", Spec{App: "alcp", Machine: "mp", Size: 1024, Iters: 2}},
	{"alcp-sm", Spec{App: "alcp", Machine: "sm", Size: 1024, Iters: 2}},
}

// runSpelled is the body of every row: spec runs serially as written, then
// with "step_procs" set at each worker count (subtests w1, w4, ...), and
// each of those must reproduce the serial run. It returns the serial
// outcome for the row's own assertions.
func runSpelled(t *testing.T, spec Spec, workers ...int) *Outcome {
	t.Helper()
	serial := mustRun(t, "serial", spec, Options{Workers: 1})
	spec.StepProcs = true
	for _, w := range workers {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			what := fmt.Sprintf("step_procs, workers=%d", w)
			sameRun(t, what, mustRun(t, what, spec, Options{Workers: w}), serial)
		})
	}
	return serial
}

// TestStepFormEquivalence: every step program at several processor counts,
// serial and parallel.
func TestStepFormEquivalence(t *testing.T) {
	for _, pair := range stepPairs {
		for _, procs := range []int{16, 64, 256} {
			if pair.Spec.App == "alcp" && procs > 64 {
				continue // the star sends P^2 bulk updates per sweep
			}
			spec := pair.Spec
			spec.Procs = procs
			t.Run(fmt.Sprintf("%s/p%d", pair.Name, procs), func(t *testing.T) {
				t.Parallel()
				runSpelled(t, spec, 1, 4)
			})
		}
	}
}

// TestStepFormEquivalenceUnderCtrlFaults: the shared-memory step programs
// under coherence control-fault injection — and the plan must actually have
// fired, or the NACK back-off/retry path went unexercised.
func TestStepFormEquivalenceUnderCtrlFaults(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.Machine != "sm" {
			continue
		}
		spec := pair.Spec
		spec.Procs = 16
		spec.SMCheck = true
		spec.SMFaults = &cost.SMFaultsConfig{Seed: 7, NACKRate: 0.05, ReorderRate: 0.05}
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			nacked(t, runSpelled(t, spec, 1, 4))
		})
	}
}

// TestStepFormEquivalenceUnderNetFaults: the message-passing step programs
// on a lossy network — and the plan must actually have exercised the
// acknowledgement and retransmission paths.
func TestStepFormEquivalenceUnderNetFaults(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.Machine != "mp" {
			continue
		}
		spec := pair.Spec
		spec.Procs = 16
		spec.Faults = &cost.FaultsConfig{Seed: 7, DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05}
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			retransmitted(t, runSpelled(t, spec, 1, 4))
		})
	}
}

// TestStepFormEquivalenceUnderHWCombining covers the hardware-combining
// ablation on both machines.
func TestStepFormEquivalenceUnderHWCombining(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.App != "lcp" {
			continue
		}
		spec := pair.Spec
		spec.Procs = 16
		spec.HWCombining = true
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			runSpelled(t, spec, 1)
		})
	}
}

// nacked and retransmitted check that a fault plan exercised the recovery
// path it exists to exercise.
func nacked(t *testing.T, out *Outcome) {
	t.Helper()
	if out.Res.Summary.CountsAll(stats.CntNACKs) == 0 {
		t.Errorf("fault plan never NACKed: the retry path went unexercised")
	}
}

func retransmitted(t *testing.T, out *Outcome) {
	t.Helper()
	if out.Res.Summary.CountsAll(stats.CntRetransmissions) == 0 {
		t.Errorf("fault plan never forced a retransmission")
	}
	if out.Res.Summary.CountsAll(stats.CntAcks) == 0 {
		t.Errorf("transport never acknowledged anything")
	}
}

// TestStepCrossFormResume: checkpoints of every step program at P=16
// replay-verify, and a snapshot keeps the "step_procs" spelling it was
// written with yet resumes under the other one — stored snapshots carry
// both. The subtest names are the field's value at checkpoint and at
// resume (coroutine = false, step = true).
func TestStepCrossFormResume(t *testing.T) {
	for _, pair := range stepPairs {
		for _, stored := range []bool{false, true} {
			name := pair.Name + "/coroutine-to-step"
			if stored {
				name = pair.Name + "/step-to-coroutine"
			}
			spec := pair.Spec
			spec.Procs = 16
			spec.StepProcs = stored
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				// Seven checkpoints: the first lands in the program's setup
				// phase, where a step program that front-loads host-side
				// writes to registered state diverges on replay.
				checkReplay(t, spec, 7, func(sp *Spec) {
					if sp.StepProcs != stored {
						t.Errorf("snapshot spec step_procs = %v, want %v", sp.StepProcs, stored)
					}
					sp.StepProcs = !stored
				})
			})
		}
	}
}
