package runner

import (
	"testing"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

// TestHWCombiningAblation checks the in-network combining cost-model
// ablation end to end on Gauss, the reduction-bound application: arming
// hw_combining must shorten the run and strictly cut the reduction
// category (ReductionWait on the shared-memory machine, the LibComp the
// software tree ascent charges on the message-passing machine), and
// replay-verify from a checkpoint (the spec knob and the combiner's state must both survive the
// snapshot round-trip).
func TestHWCombiningAblation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		cat  stats.Category
	}{
		{"gauss-sm", Spec{App: "gauss", Machine: "sm", Procs: 8, Size: 64}, stats.ReductionWait},
		{"gauss-mp", Spec{App: "gauss", Machine: "mp", Procs: 8, Size: 64}, stats.LibComp},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base, err := Run(tc.spec, Options{})
			if err != nil || base.Res.Err != nil {
				t.Fatalf("software run: %v / %v", err, base.Res.Err)
			}
			hwSpec := tc.spec
			hwSpec.HWCombining = true
			hw, err := Run(hwSpec, Options{})
			if err != nil || hw.Res.Err != nil {
				t.Fatalf("hw run: %v / %v", err, hw.Res.Err)
			}

			if hw.AppLine != base.AppLine {
				t.Errorf("answer changed: %q vs %q — combining must be a timing ablation only", hw.AppLine, base.AppLine)
			}
			baseCat := base.Res.Summary.CyclesAll(tc.cat)
			hwCat := hw.Res.Summary.CyclesAll(tc.cat)
			if hwCat >= baseCat {
				t.Errorf("category %v: hw %.0f >= software %.0f — combining reclaimed nothing", tc.cat, hwCat, baseCat)
			}
			if hw.Res.Elapsed >= base.Res.Elapsed {
				t.Errorf("elapsed: hw %d >= software %d", hw.Res.Elapsed, base.Res.Elapsed)
			}
			if hw.Fingerprint == base.Fingerprint {
				t.Errorf("hw and software runs share fingerprint %#x — the ablation changed nothing", hw.Fingerprint)
			}

			// Checkpoint/replay: combiner state encodes, spec round-trips.
			dir := t.TempDir()
			ck, err := Run(hwSpec, Options{CheckpointEvery: hw.Res.Elapsed / 3, CheckpointDir: dir})
			if err != nil || len(ck.Checkpoints) == 0 {
				t.Fatalf("checkpointed hw run: %v (%d checkpoints)", err, len(ck.Checkpoints))
			}
			snap, err := snapshot.ReadFile(ck.Checkpoints[0].Path)
			if err != nil {
				t.Fatalf("read checkpoint: %v", err)
			}
			sp, err := SpecFromSnapshot(snap)
			if err != nil {
				t.Fatalf("spec from snapshot: %v", err)
			}
			if !sp.HWCombining {
				t.Fatalf("hw_combining lost in the snapshot spec round-trip")
			}
			re, err := Run(*sp, Options{Resume: snap})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !re.Verified {
				t.Fatalf("resume never verified")
			}
			if re.Fingerprint != hw.Fingerprint {
				t.Errorf("resumed fingerprint %#x != hw %#x", re.Fingerprint, hw.Fingerprint)
			}
		})
	}
}
