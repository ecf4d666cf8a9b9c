package runner

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// stepPairs are the app/machine pairs written as step programs, which the
// engine can dispatch in either processor form. Sizes are kept small: the
// matrix below multiplies them by three processor counts and two worker
// counts, under the race detector.
var stepPairs = []struct {
	Name string
	Spec Spec
}{
	{"em3d-mp", Spec{App: "em3d", Machine: "mp", Size: 8, Iters: 2}},
	{"em3d-sm", Spec{App: "em3d", Machine: "sm", Size: 8, Iters: 2}},
	{"lcp-mp", Spec{App: "lcp", Machine: "mp", Size: 1024, Iters: 3}},
	{"lcp-sm", Spec{App: "lcp", Machine: "sm", Size: 1024, Iters: 3}},
	{"alcp-mp", Spec{App: "alcp", Machine: "mp", Size: 1024, Iters: 2}},
	{"alcp-sm", Spec{App: "alcp", Machine: "sm", Size: 1024, Iters: 2}},
}

// runBothForms runs spec under coroutine and step dispatch and checks the
// cross-form determinism contract: bit-identical accounting (fingerprint,
// stats bytes, elapsed) and the same app answer line. It returns the
// coroutine outcome for further assertions.
func runBothForms(t *testing.T, spec Spec, workers int) *Outcome {
	t.Helper()
	spec.StepProcs = false
	co, err := Run(spec, Options{Workers: workers})
	if err != nil {
		t.Fatalf("coroutine run: %v", err)
	}
	if co.Res.Err != nil {
		t.Fatalf("coroutine run aborted: %v", co.Res.Err)
	}

	spec.StepProcs = true
	st, err := Run(spec, Options{Workers: workers})
	if err != nil {
		t.Fatalf("step run: %v", err)
	}
	if st.Res.Err != nil {
		t.Fatalf("step run aborted: %v", st.Res.Err)
	}

	if st.Fingerprint != co.Fingerprint {
		t.Errorf("fingerprint: step %#x, coroutine %#x", st.Fingerprint, co.Fingerprint)
	}
	if !bytes.Equal(st.StatsBytes, co.StatsBytes) {
		t.Errorf("stats bytes differ between forms")
	}
	if st.AppLine != co.AppLine {
		t.Errorf("app answer: step %q, coroutine %q", st.AppLine, co.AppLine)
	}
	if st.Res.Elapsed != co.Res.Elapsed {
		t.Errorf("elapsed: step %d, coroutine %d", st.Res.Elapsed, co.Res.Elapsed)
	}
	return co
}

// TestStepFormEquivalence pins the cross-form determinism contract: for
// every step program, step dispatch must produce bit-identical accounting
// (fingerprint, stats bytes, and the app's answer line) to coroutine
// dispatch, at several processor counts, serial and parallel.
func TestStepFormEquivalence(t *testing.T) {
	for _, pair := range stepPairs {
		for _, procs := range []int{16, 64, 256} {
			if pair.Spec.App == "alcp" && procs > 64 {
				continue // the star sends P^2 bulk updates per sweep
			}
			for _, workers := range []int{1, 4} {
				pair, procs, workers := pair, procs, workers
				t.Run(fmt.Sprintf("%s/p%d/w%d", pair.Name, procs, workers), func(t *testing.T) {
					t.Parallel()
					spec := pair.Spec
					spec.Procs = procs
					runBothForms(t, spec, workers)
				})
			}
		}
	}
}

// TestStepFormEquivalenceUnderCtrlFaults extends the contract to coherence
// control-fault injection: the NACK back-off/retry path is one body run by
// both forms, so a faulty shared-memory run must stay bit-identical across
// them — and the plan must actually have fired.
func TestStepFormEquivalenceUnderCtrlFaults(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.Machine != "sm" {
			continue
		}
		for _, workers := range []int{1, 4} {
			pair, workers := pair, workers
			t.Run(fmt.Sprintf("%s/w%d", pair.Name, workers), func(t *testing.T) {
				t.Parallel()
				spec := pair.Spec
				spec.Procs = 16
				spec.SMCheck = true
				spec.SMFaults = &cost.SMFaultsConfig{Seed: 7, NACKRate: 0.05, ReorderRate: 0.05}
				co := runBothForms(t, spec, workers)
				if co.Res.Summary.CountsAll(stats.CntNACKs) == 0 {
					t.Errorf("fault plan never NACKed: the retry path went unexercised")
				}
			})
		}
	}
}

// TestStepFormEquivalenceUnderNetFaults extends the contract to network
// fault injection: the reliable transport is a packet filter inside the one
// poll machine both forms run, so a lossy message-passing run must stay
// bit-identical across them — and the plan must actually have exercised
// the acknowledgement and retransmission paths.
func TestStepFormEquivalenceUnderNetFaults(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.Machine != "mp" {
			continue
		}
		for _, workers := range []int{1, 4} {
			pair, workers := pair, workers
			t.Run(fmt.Sprintf("%s/w%d", pair.Name, workers), func(t *testing.T) {
				t.Parallel()
				spec := pair.Spec
				spec.Procs = 16
				spec.Faults = &cost.FaultsConfig{Seed: 7, DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05}
				co := runBothForms(t, spec, workers)
				if co.Res.Summary.CountsAll(stats.CntRetransmissions) == 0 {
					t.Errorf("fault plan never forced a retransmission")
				}
				if co.Res.Summary.CountsAll(stats.CntAcks) == 0 {
					t.Errorf("transport never acknowledged anything")
				}
			})
		}
	}
}

// TestStepFormEquivalenceUnderHWCombining covers the hardware-combining
// ablation: the combiner deposit is one step-form body on both machines.
func TestStepFormEquivalenceUnderHWCombining(t *testing.T) {
	for _, pair := range stepPairs {
		if pair.Spec.App != "lcp" {
			continue
		}
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			spec := pair.Spec
			spec.Procs = 16
			spec.HWCombining = true
			runBothForms(t, spec, 1)
		})
	}
}

// TestStepCrossFormResume checks that checkpoints are form-portable: a
// snapshot written by one form resumes (replay-verified) under the other,
// in both directions, with the original fingerprint.
func TestStepCrossFormResume(t *testing.T) {
	for _, pair := range stepPairs {
		for _, fromStep := range []bool{false, true} {
			pair, fromStep := pair, fromStep
			name := fmt.Sprintf("%s/coroutine-to-step", pair.Name)
			if fromStep {
				name = fmt.Sprintf("%s/step-to-coroutine", pair.Name)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec := pair.Spec
				spec.Procs = 16
				spec.StepProcs = fromStep

				base, err := Run(spec, Options{})
				if err != nil || base.Res.Err != nil {
					t.Fatalf("base run: %v / %v", err, base.Res.Err)
				}
				every := base.Res.Elapsed / 7
				if every < 1 {
					t.Fatalf("run too short to checkpoint (elapsed %d)", base.Res.Elapsed)
				}
				dir := t.TempDir()
				ck, err := Run(spec, Options{CheckpointEvery: every, CheckpointDir: dir})
				if err != nil || ck.Res.Err != nil {
					t.Fatalf("checkpointed run: %v / %v", err, ck.Res.Err)
				}
				if len(ck.Checkpoints) == 0 {
					t.Fatalf("no checkpoints written")
				}

				// The first checkpoint lands in the program's setup phase and
				// the last near completion: form-portability must hold at
				// every boundary, and setup is where a step port that
				// front-loads host-side writes to registered state diverges.
				cps := []Checkpoint{ck.Checkpoints[0], ck.Checkpoints[len(ck.Checkpoints)-1]}
				for _, cp := range cps {
					snap, err := snapshot.ReadFile(cp.Path)
					if err != nil {
						t.Fatalf("read %s: %v", cp.Path, err)
					}
					sp, err := SpecFromSnapshot(snap)
					if err != nil {
						t.Fatalf("spec from snapshot: %v", err)
					}
					if sp.StepProcs != fromStep {
						t.Fatalf("snapshot spec step_procs = %v, want %v", sp.StepProcs, fromStep)
					}
					sp.StepProcs = !fromStep // resume under the other form

					re, err := Run(*sp, Options{Resume: snap})
					if err != nil {
						t.Fatalf("cross-form resume from cycle %d: %v", cp.Cycle, err)
					}
					if !re.Verified {
						t.Fatalf("cross-form resume from cycle %d never verified", cp.Cycle)
					}
					if re.Fingerprint != base.Fingerprint {
						t.Fatalf("cross-form resume from cycle %d fingerprint %#x, want %#x",
							cp.Cycle, re.Fingerprint, base.Fingerprint)
					}
					if re.AppLine != base.AppLine {
						t.Fatalf("cross-form resume from cycle %d answer %q, want %q",
							cp.Cycle, re.AppLine, base.AppLine)
					}
				}
			})
		}
	}
}

// TestValidateStepUnsupported pins the typed rejection of step requests for
// the apps that are blocking programs — and that no machine configuration
// (fault plans, hardware combining) is rejected for a step program.
func TestValidateStepUnsupported(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"em3d-mp", Spec{App: "em3d", Machine: "mp", Procs: 4, StepProcs: true}, true},
		{"lcp-sm", Spec{App: "lcp", Machine: "sm", Procs: 4, StepProcs: true}, true},
		{"gauss", Spec{App: "gauss", Machine: "mp", Procs: 4, StepProcs: true}, false},
		{"mse", Spec{App: "mse", Machine: "sm", Procs: 4, StepProcs: true}, false},
		{"alcp", Spec{App: "alcp", Machine: "mp", Procs: 4, StepProcs: true}, true},
		{"em3d-faults", Spec{App: "em3d", Machine: "mp", Procs: 4, StepProcs: true,
			Faults: &cost.FaultsConfig{Seed: 1}}, true},
		{"lcp-smfaults", Spec{App: "lcp", Machine: "sm", Procs: 4, StepProcs: true,
			SMFaults: &cost.SMFaultsConfig{Seed: 1}}, true},
		{"em3d-hwcomb", Spec{App: "em3d", Machine: "sm", Procs: 4, StepProcs: true,
			HWCombining: true}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected validate error: %v", tc.name, err)
			}
			continue
		}
		var se *StepUnsupportedError
		if !errors.As(err, &se) {
			t.Errorf("%s: want *StepUnsupportedError, got %v", tc.name, err)
			continue
		}
		if se.App != tc.spec.App || se.Reason == "" {
			t.Errorf("%s: malformed error %+v", tc.name, se)
		}
	}
}
