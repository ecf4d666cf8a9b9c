package runner

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// matrix is the shared replay-equivalence acceptance surface (bench.go);
// the benchmark suite consumes the same specs via TableSpec, so golden
// tests and benchmarks provably run identical configurations.
var matrix = EquivalenceMatrix()

// matrixALCP is the matrix plus the asynchronous LCP pair, which the shared
// matrix lacks (its rows are also the benchmark's, so it is not extended
// there).
var matrixALCP = append(EquivalenceMatrix(),
	NamedSpec{"alcp-mp", Spec{App: "alcp", Machine: "mp", Procs: 4, Size: 128, Iters: 3}},
	NamedSpec{"alcp-sm", Spec{App: "alcp", Machine: "sm", Procs: 4, Size: 128, Iters: 3}})

// checkReplay is the replay contract for one configuration: an
// uninterrupted run, a run that writes a checkpoint every 1/parts of it,
// and a run resumed from the first and from the last of those checkpoints
// must produce bit-identical final accounting. respell, when non-nil,
// edits the spec recovered from the snapshot before the resume.
func checkReplay(t *testing.T, spec Spec, parts sim.Time, respell func(*Spec)) {
	t.Helper()
	base := mustRun(t, "base", spec, Options{})
	if base.Fingerprint == 0 || len(base.StatsBytes) == 0 {
		t.Fatalf("base run produced no stats fingerprint")
	}
	every := base.Res.Elapsed / parts
	if every < 1 {
		t.Fatalf("run too short to checkpoint (elapsed %d)", base.Res.Elapsed)
	}
	ck := mustRun(t, "checkpointed", spec, Options{CheckpointEvery: every, CheckpointDir: t.TempDir()})
	sameRun(t, "checkpointed run", ck, base)
	if len(ck.Checkpoints) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d", len(ck.Checkpoints))
	}

	for _, cp := range []Checkpoint{ck.Checkpoints[0], ck.Checkpoints[len(ck.Checkpoints)-1]} {
		snap, err := snapshot.ReadFile(cp.Path)
		if err != nil {
			t.Fatalf("read %s: %v", cp.Path, err)
		}
		sp, err := SpecFromSnapshot(snap)
		if err != nil {
			t.Fatalf("spec from %s: %v", cp.Path, err)
		}
		if respell != nil {
			respell(sp)
		}
		what := fmt.Sprintf("resume from cycle %d", cp.Cycle)
		re := mustRun(t, what, *sp, Options{Resume: snap})
		if !re.Verified {
			t.Fatalf("%s never verified", what)
		}
		sameRun(t, what, re, base)
	}
}

// TestReplayEquivalence is the tentpole contract: for every configuration,
// an uninterrupted run, a run that writes checkpoints, and a run resumed
// from each of those checkpoints must produce bit-identical final
// accounting. The resume path verifies the full machine-state image at the
// checkpoint cycle, so any hidden nondeterminism fails loudly here.
func TestReplayEquivalence(t *testing.T) {
	for _, tc := range matrixALCP {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			checkReplay(t, tc.Spec, 3, nil)
		})
	}
}

// TestRunUntil checks the planned-stop path used for bisection: the run
// halts at the first quantum boundary at or after the requested cycle, with
// partial stats and no error beyond the stop report.
func TestRunUntil(t *testing.T) {
	spec := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	base, err := Run(spec, Options{})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("base run: %v / %v", err, base.Res.Err)
	}
	until := base.Res.Elapsed / 2
	got, err := Run(spec, Options{RunUntil: until})
	if err != nil {
		t.Fatalf("run-until: %v", err)
	}
	if !got.Stopped {
		t.Fatalf("run did not stop (err %v)", got.Res.Err)
	}
	if got.StoppedAt < until {
		t.Fatalf("stopped at %d, before requested %d", got.StoppedAt, until)
	}
	if got.Fingerprint == base.Fingerprint {
		t.Fatalf("half-run fingerprint equals full-run fingerprint")
	}
	// Planned stops are deterministic: same request, same boundary.
	again, err := Run(spec, Options{RunUntil: until})
	if err != nil {
		t.Fatalf("run-until again: %v", err)
	}
	if again.StoppedAt != got.StoppedAt || again.Fingerprint != got.Fingerprint {
		t.Fatalf("planned stop not deterministic: %d/%#x vs %d/%#x",
			again.StoppedAt, again.Fingerprint, got.StoppedAt, got.Fingerprint)
	}
}

// TestResumeDetectsTampering checks the divergence detector: a snapshot
// whose recorded cycle or stats no longer match the replay must abort with
// a *ReplayDivergenceError, not continue silently.
func TestResumeDetectsTampering(t *testing.T) {
	spec := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	dir := t.TempDir()
	base, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	ck, err := Run(spec, Options{CheckpointEvery: base.Res.Elapsed / 3, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	snap, err := snapshot.ReadFile(ck.Checkpoints[0].Path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	var div *ReplayDivergenceError

	// A cycle that is not a quantum boundary of the replay.
	tampered := *snap
	tampered.Cycle++
	if _, err := Run(spec, Options{Resume: &tampered}); !errors.As(err, &div) {
		t.Fatalf("tampered cycle: got %v, want ReplayDivergenceError", err)
	} else if div.What != "boundary" {
		t.Fatalf("tampered cycle: diverged on %q, want boundary", div.What)
	}

	// Stats that do not match the replayed accounting.
	tampered = *snap
	tampered.Stats = append(append([]byte(nil), snap.Stats...), 0)
	if _, err := Run(spec, Options{Resume: &tampered}); !errors.As(err, &div) {
		t.Fatalf("tampered stats: got %v, want ReplayDivergenceError", err)
	} else if div.What != "stats" {
		t.Fatalf("tampered stats: diverged on %q, want stats", div.What)
	}

	// A checkpoint cycle past the end of the run.
	tampered = *snap
	tampered.Cycle = int64(base.Res.Elapsed) * 10
	if _, err := Run(spec, Options{Resume: &tampered}); !errors.As(err, &div) {
		t.Fatalf("cycle past end: got %v, want ReplayDivergenceError", err)
	} else if div.What != "end" {
		t.Fatalf("cycle past end: diverged on %q, want end", div.What)
	}
}

// TestSpecValidate pins the spec-level error paths resume depends on.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{App: "nope", Machine: "mp", Procs: 4},
		{App: "gauss", Machine: "vax", Procs: 4},
		{App: "gauss", Machine: "sm", Procs: 4, Faults: &cost.FaultsConfig{Seed: 1}},
		{App: "gauss", Machine: "mp", Procs: 4, SMCheck: true},
		{App: "gauss", Machine: "mp", Procs: 4, Shape: "star"},
		{App: "em3d", Machine: "sm", Procs: 4, Policy: "striped"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	if _, err := Run(Spec{App: "nope", Machine: "mp", Procs: 4}, Options{}); err == nil {
		t.Errorf("Run accepted an invalid spec")
	}
}
