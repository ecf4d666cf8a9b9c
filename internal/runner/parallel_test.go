package runner

import (
	"bytes"
	"fmt"
	"os"
	"sync"
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

// runTogether starts n runs of spec at once, each on its own goroutine, as
// a sweep service with n workers executes them, and returns their outcomes
// once all have finished. It fails the test on a harness error or an
// aborted run.
func runTogether(t *testing.T, spec Spec, n int) []*Outcome {
	t.Helper()
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = spec
	}
	return runEach(t, specs, make([]Options, n))
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
// LCP with hardware combining on both machines, and at P=256 the two
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

// TestParallelDeterminismMatrix is the determinism contract for the host
// parallelism that remains: runs executing at the same time (wwtsweep -jobs,
// wwtserved) share no simulation state. For every configuration in the
// replay-equivalence matrix and every step program — under both machines'
// fault plans and with hardware combining — two runs started together on
// separate goroutines must agree on the stats fingerprint, the canonical
// stats bytes and the application answer. Run it under -race to also catch
// any package-level state two runs would share.
func TestParallelDeterminismMatrix(t *testing.T) {
	for _, row := range parallelRows() {
		t.Run(row.Name, func(t *testing.T) {
			t.Parallel()
			outs := runTogether(t, row.Spec, 2)
			if row.fired != nil {
				row.fired(t, outs[0])
			}
			sameRun(t, "concurrent run", outs[1], outs[0])
		})
	}
}

// runEach runs every spec/options pair at once, each on its own goroutine,
// and returns the outcomes in order once all have finished. It fails the
// test on a harness error or an aborted run.
func runEach(t *testing.T, specs []Spec, opts []Options) []*Outcome {
	t.Helper()
	outs := make([]*Outcome, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = Run(specs[i], opts[i])
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("run %d of %d: %v", i+1, len(specs), errs[i])
		}
		if outs[i].Res.Err != nil {
			t.Fatalf("run %d of %d aborted: %v", i+1, len(specs), outs[i].Res.Err)
		}
	}
	return outs
}

// TestParallelCheckpointEquivalence checks that checkpointing stays private
// to a run when runs share a process, as wwtsweep -jobs and wwtserved run
// them: two runs that checkpoint at the same time, each into its own
// directory, must write byte-identical checkpoint files, and resuming from
// each one's last checkpoint, again both at once, must replay-verify and
// land on the uninterrupted run's fingerprint.
func TestParallelCheckpointEquivalence(t *testing.T) {
	for _, name := range []string{"em3d-mp-faults", "gauss-sm-faults"} {
		spec := named(matrix, name).Spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := mustRun(t, "base", spec, Options{})
			every := base.Res.Elapsed / 3
			specs := []Spec{spec, spec}
			cks := runEach(t, specs, []Options{
				{CheckpointEvery: every, CheckpointDir: t.TempDir()},
				{CheckpointEvery: every, CheckpointDir: t.TempDir()},
			})
			for i, ck := range cks {
				sameRun(t, fmt.Sprintf("checkpointed run %d", i+1), ck, base)
			}
			a, b := cks[0].Checkpoints, cks[1].Checkpoints
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("checkpoint counts %d and %d, want equal and nonzero", len(a), len(b))
			}
			for i := range a {
				ab, err := os.ReadFile(a[i].Path)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := os.ReadFile(b[i].Path)
				if err != nil {
					t.Fatal(err)
				}
				if a[i].Cycle != b[i].Cycle || !bytes.Equal(ab, bb) {
					t.Fatalf("checkpoint %d differs between concurrent runs (cycles %d, %d)", i, a[i].Cycle, b[i].Cycle)
				}
			}

			resumes := make([]Options, len(cks))
			for i, ck := range cks {
				cp := ck.Checkpoints[len(ck.Checkpoints)-1]
				snap, err := snapshot.ReadFile(cp.Path)
				if err != nil {
					t.Fatalf("read %s: %v", cp.Path, err)
				}
				sp, err := SpecFromSnapshot(snap)
				if err != nil {
					t.Fatalf("spec from snapshot: %v", err)
				}
				specs[i], resumes[i] = *sp, Options{Resume: snap}
			}
			for i, re := range runEach(t, specs, resumes) {
				what := fmt.Sprintf("resume %d", i+1)
				if !re.Verified {
					t.Fatalf("%s never verified", what)
				}
				sameRun(t, what, re, base)
			}
		})
	}
}
