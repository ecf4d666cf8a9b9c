package runner

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/snapshot"
)

// mustRun runs spec and fails the test on a harness error or an aborted run.
func mustRun(t *testing.T, what string, spec Spec, opts Options) *Outcome {
	t.Helper()
	out, err := Run(spec, opts)
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	if out.Res.Err != nil {
		t.Fatalf("%s run aborted: %v", what, out.Res.Err)
	}
	return out
}

// sameRun fails unless got reproduces want bit for bit: stats fingerprint,
// canonical stats bytes, elapsed cycles and the application's answer line.
func sameRun(t *testing.T, what string, got, want *Outcome) {
	t.Helper()
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("%s fingerprint %#x, want %#x", what, got.Fingerprint, want.Fingerprint)
	}
	if !bytes.Equal(got.StatsBytes, want.StatsBytes) {
		t.Errorf("%s canonical stats bytes differ", what)
	}
	if got.Res.Elapsed != want.Res.Elapsed {
		t.Errorf("%s elapsed %d, want %d", what, got.Res.Elapsed, want.Res.Elapsed)
	}
	if got.AppLine != want.AppLine {
		t.Errorf("%s app answer %q, want %q", what, got.AppLine, want.AppLine)
	}
}

// named returns the row called name.
func named(rows []NamedSpec, name string) NamedSpec {
	for _, ns := range rows {
		if ns.Name == name {
			return ns
		}
	}
	panic("no row named " + name)
}

// parallelRow is a parallel-determinism configuration; fired, when set,
// checks that the row's fault plan exercised the path it is there for.
type parallelRow struct {
	NamedSpec
	fired func(*testing.T, *Outcome)
}

// parallelRows is the shared matrix plus what it lacks of the step
// programs: ALCP, LCP and ALCP on a lossy network (EM3D is a matrix row),
// the three shared-memory step programs under coherence control faults,
// LCP with hardware combining on both machines, and — at P=256, wide enough
// that every pool worker's chunk holds interior nodes of the tree — the two
// programs that read the machine-wide state all nodes share: LCP-MP the
// collective Topology, EM3D-SM one flat-celled MCS lock per node.
func parallelRows() []parallelRow {
	var rows []parallelRow
	for _, ns := range matrixALCP {
		rows = append(rows, parallelRow{NamedSpec: ns})
	}
	for _, name := range []string{"lcp-mp", "alcp-mp", "em3d-sm", "lcp-sm", "alcp-sm"} {
		ns := named(matrixALCP, name)
		row := parallelRow{NamedSpec: NamedSpec{ns.Name + "-faults", ns.Spec}}
		if ns.Spec.Machine == "mp" {
			row.Spec.Faults = &cost.FaultsConfig{Seed: 7, DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05}
			row.fired = retransmitted
		} else {
			row.Spec.SMCheck = true
			row.Spec.SMFaults = &cost.SMFaultsConfig{Seed: 7, NACKRate: 0.05, ReorderRate: 0.05}
			row.fired = nacked
		}
		rows = append(rows, row)
	}
	for _, name := range []string{"lcp-mp", "lcp-sm"} {
		ns := named(matrixALCP, name)
		row := parallelRow{NamedSpec: NamedSpec{ns.Name + "-hw", ns.Spec}}
		row.Spec.HWCombining = true
		rows = append(rows, row)
	}
	rows = append(rows,
		parallelRow{NamedSpec: NamedSpec{"em3d-sm-p256", Spec{App: "em3d", Machine: "sm", Procs: 256, Size: 8, Iters: 2}}},
		parallelRow{NamedSpec: NamedSpec{"lcp-mp-p256", Spec{App: "lcp", Machine: "mp", Procs: 256, Size: 512, Iters: 2}}})
	return rows
}

// TestParallelDeterminismMatrix is the serial≡parallel contract at the
// system level: every configuration in the replay-equivalence matrix and
// every step program — under both machines' fault plans and with hardware
// combining — must produce the same stats fingerprint, the same canonical
// stats bytes, and the same application answer whether the engine
// dispatches processors serially or across a worker pool. Run it under
// -race to also catch any cross-processor access the staging discipline
// missed.
func TestParallelDeterminismMatrix(t *testing.T) {
	for _, row := range parallelRows() {
		t.Run(row.Name, func(t *testing.T) {
			t.Parallel()
			serial := mustRun(t, "serial", row.Spec, Options{Workers: 1})
			if row.fired != nil {
				row.fired(t, serial)
			}
			for _, workers := range []int{2, 4} {
				what := fmt.Sprintf("workers=%d", workers)
				sameRun(t, what, mustRun(t, what, row.Spec, Options{Workers: workers}), serial)
			}
		})
	}
}

// TestParallelCheckpointEquivalence checks that the checkpoint layer's
// quantum hooks observe serial-equivalent quiescent state under parallel
// dispatch: a parallel run's snapshots must replay-verify in a serial
// resume, and vice versa, landing on the serial run's fingerprint.
func TestParallelCheckpointEquivalence(t *testing.T) {
	for _, name := range []string{"em3d-mp-faults", "gauss-sm-faults"} {
		spec := named(matrix, name).Spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(spec, Options{Workers: 1})
			if err != nil || serial.Res.Err != nil {
				t.Fatalf("serial run: %v / %v", err, serial.Res.Err)
			}
			dir := t.TempDir()
			par, err := Run(spec, Options{
				Workers: 4, CheckpointEvery: serial.Res.Elapsed / 3, CheckpointDir: dir,
			})
			if err != nil {
				t.Fatalf("parallel checkpointed run: %v", err)
			}
			if par.Fingerprint != serial.Fingerprint {
				t.Fatalf("parallel checkpointed fingerprint %#x, want %#x",
					par.Fingerprint, serial.Fingerprint)
			}
			if len(par.Checkpoints) == 0 {
				t.Fatal("parallel run wrote no checkpoints")
			}
			cp := par.Checkpoints[len(par.Checkpoints)-1]
			snap, err := snapshot.ReadFile(cp.Path)
			if err != nil {
				t.Fatalf("read %s: %v", cp.Path, err)
			}
			sp, err := SpecFromSnapshot(snap)
			if err != nil {
				t.Fatalf("spec from snapshot: %v", err)
			}
			// Cross-resume: serial replay must byte-match the state image a
			// parallel run captured, and parallel replay the serial image.
			for _, workers := range []int{1, 4} {
				re, err := Run(*sp, Options{Resume: snap, Workers: workers})
				if err != nil {
					t.Fatalf("resume (workers=%d) from parallel snapshot: %v", workers, err)
				}
				if !re.Verified {
					t.Fatalf("resume (workers=%d) never verified", workers)
				}
				if re.Fingerprint != serial.Fingerprint {
					t.Fatalf("resume (workers=%d) fingerprint %#x, want %#x",
						workers, re.Fingerprint, serial.Fingerprint)
				}
			}
		})
	}
}
