package runner

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// TestBatchedStatsEquivalence is the batched-accounting contract: the
// default per-quantum cost accumulators and the reference per-access mode
// (Options.perAccessStats) must produce byte-identical canonical stats —
// same fingerprint, same encoded bytes, same application answer — for
// every configuration in the equivalence matrix, serially and across a
// worker pool. Run it under -race to also catch any accumulator access
// outside the flush discipline.
func TestBatchedStatsEquivalence(t *testing.T) {
	for _, tc := range matrix {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			base, err := Run(tc.Spec, Options{Workers: 1})
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			if base.Res.Err != nil {
				t.Fatalf("batched run aborted: %v", base.Res.Err)
			}
			variants := []struct {
				name string
				opts Options
			}{
				{"per-access/workers=1", Options{Workers: 1, perAccessStats: true}},
				{"per-access/workers=4", Options{Workers: 4, perAccessStats: true}},
				{"batched/workers=4", Options{Workers: 4}},
			}
			for _, v := range variants {
				got, err := Run(tc.Spec, v.opts)
				if err != nil {
					t.Fatalf("%s run: %v", v.name, err)
				}
				if got.Fingerprint != base.Fingerprint {
					t.Errorf("%s fingerprint %#x, want batched serial %#x",
						v.name, got.Fingerprint, base.Fingerprint)
				}
				if !bytes.Equal(got.StatsBytes, base.StatsBytes) {
					t.Errorf("%s canonical stats bytes differ from batched serial", v.name)
				}
				if got.AppLine != base.AppLine {
					t.Errorf("%s app answer %q, want %q", v.name, got.AppLine, base.AppLine)
				}
			}
		})
	}
}

// TestCheckpointAcrossAccountingModes extends the replay-equivalence
// matrix across the accounting-mode boundary: a checkpoint written by a
// batched run — captured at a quantum boundary, immediately after the
// engine flushed every processor's pending accumulator — must
// replay-verify byte-for-byte when resumed in per-access mode (and with a
// worker pool), and land on the batched run's final fingerprint. This
// pins the flush-before-capture ordering: if any cost lingered in a
// pending bucket at the boundary, the snapshot stats would differ between
// modes and resume would abort with a divergence error.
func TestCheckpointAcrossAccountingModes(t *testing.T) {
	for _, name := range []string{"em3d-mp", "gauss-sm", "gauss-sm-faults"} {
		var spec Spec
		found := false
		for _, tc := range matrix {
			if tc.Name == name {
				spec, found = tc.Spec, true
			}
		}
		if !found {
			t.Fatalf("matrix entry %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, err := Run(spec, Options{})
			if err != nil || base.Res.Err != nil {
				t.Fatalf("base run: %v / %v", err, base.Res.Err)
			}
			dir := t.TempDir()
			ck, err := Run(spec, Options{CheckpointEvery: base.Res.Elapsed / 3, CheckpointDir: dir})
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if len(ck.Checkpoints) == 0 {
				t.Fatalf("no checkpoints written")
			}
			cp := ck.Checkpoints[0]
			snap, err := snapshot.ReadFile(cp.Path)
			if err != nil {
				t.Fatalf("read %s: %v", cp.Path, err)
			}
			for _, opts := range []Options{
				{Resume: snap, perAccessStats: true},
				{Resume: snap, perAccessStats: true, Workers: 4},
			} {
				re, err := Run(spec, opts)
				if err != nil {
					t.Fatalf("per-access resume from cycle %d: %v", cp.Cycle, err)
				}
				if !re.Verified {
					t.Fatalf("per-access resume from cycle %d never verified", cp.Cycle)
				}
				if re.Fingerprint != base.Fingerprint {
					t.Fatalf("per-access resume: fingerprint %#x, want %#x",
						re.Fingerprint, base.Fingerprint)
				}
				if !bytes.Equal(re.StatsBytes, base.StatsBytes) {
					t.Fatalf("per-access resume: stats bytes differ")
				}
			}
		})
	}
}
