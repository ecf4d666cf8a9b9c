package runner

import "repro/internal/cost"

// This file is the single source of run configurations shared by the
// benchmark (bench/), the whole-run allocation budgets
// (alloc_budget_test.go at the repo root) and the golden replay-equivalence
// tests: all consume the same Spec values, so a benchmark provably
// simulates the configuration the correctness tests verified, and vice
// versa.

// NamedSpec pairs a Spec with a stable name for table-driven harnesses.
type NamedSpec struct {
	Name string
	Spec Spec
}

// TableProcs is the processor count of every paper-table experiment
// (Table 1: 32-node machines).
const TableProcs = 32

// TableSpec returns the full-scale spec behind the paper tables for app on
// machine: 32 processors, paper-default problem sizes (Size and Iters zero
// mean each app's DefaultParams).
func TableSpec(app, machine string) Spec {
	return Spec{App: app, Machine: machine, Procs: TableProcs}
}

// EquivalenceMatrix is the replay-equivalence acceptance surface: every app
// on every machine at test-sized problems, plus one fault-injected
// configuration per machine. TestReplayEquivalence and the
// parallel-determinism matrix iterate it.
func EquivalenceMatrix() []NamedSpec {
	return []NamedSpec{
		{"em3d-mp", Spec{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3}},
		{"em3d-sm", Spec{App: "em3d", Machine: "sm", Procs: 4, Size: 40, Iters: 3}},
		{"gauss-mp", Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}},
		{"gauss-sm", Spec{App: "gauss", Machine: "sm", Procs: 4, Size: 48}},
		{"lcp-mp", Spec{App: "lcp", Machine: "mp", Procs: 4, Size: 128, Iters: 3}},
		{"lcp-sm", Spec{App: "lcp", Machine: "sm", Procs: 4, Size: 128, Iters: 3}},
		{"mse-mp", Spec{App: "mse", Machine: "mp", Procs: 4, Size: 32, Iters: 2}},
		{"mse-sm", Spec{App: "mse", Machine: "sm", Procs: 4, Size: 32, Iters: 2}},
		{"em3d-mp-faults", Spec{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3,
			Faults: &cost.FaultsConfig{Seed: 7, DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05}}},
		{"gauss-sm-faults", Spec{App: "gauss", Machine: "sm", Procs: 4, Size: 48, SMCheck: true,
			SMFaults: &cost.SMFaultsConfig{Seed: 7, NACKRate: 0.02, ReorderRate: 0.02}}},

		// P=64 rows: every app/machine pair at twice the paper's machine
		// size, with per-processor working sets shrunk so replay and
		// parallel determinism both get exercised on the scaling
		// dispatcher's wide-machine path (batch chunking, compacted
		// per-proc state) rather than only at P=4.
		{"em3d-mp-p64", Spec{App: "em3d", Machine: "mp", Procs: 64, Size: 8, Iters: 2}},
		{"em3d-sm-p64", Spec{App: "em3d", Machine: "sm", Procs: 64, Size: 8, Iters: 2}},
		{"gauss-mp-p64", Spec{App: "gauss", Machine: "mp", Procs: 64, Size: 64}},
		{"gauss-sm-p64", Spec{App: "gauss", Machine: "sm", Procs: 64, Size: 64}},
		{"lcp-mp-p64", Spec{App: "lcp", Machine: "mp", Procs: 64, Size: 128, Iters: 2}},
		{"lcp-sm-p64", Spec{App: "lcp", Machine: "sm", Procs: 64, Size: 128, Iters: 2}},
		// mse-mp needs a small body count and several iterations: its long
		// init phase makes quantum boundaries sparse, and the replay test
		// needs enough boundaries in the interactive region for two
		// checkpoints.
		{"mse-mp-p64", Spec{App: "mse", Machine: "mp", Procs: 64, Size: 64, Iters: 6}},
		{"mse-sm-p64", Spec{App: "mse", Machine: "sm", Procs: 64, Size: 64, Iters: 6}},
	}
}

// PaperSpecs names every run behind the paper's Tables 4-23 and the two
// ablations its text reports (internal/tables builds them from these runs'
// outcomes), in the order cmd/paper starts them: the long MSE runs first.
// Table 8's Gauss-MP run is also the lop-sided arm of the §5.2 broadcast
// ablation, and Table 14's EM3D-SM run the base of the §5.3.4 flush
// ablation, so no two entries share a CacheKey. quick selects the reduced
// workloads: 8 processors, and only the Size and Iters overrides.
func PaperSpecs(quick bool) []NamedSpec {
	at := func(app, machine string, size, iters int) Spec {
		s := TableSpec(app, machine)
		if quick {
			s.Procs, s.Size, s.Iters = 8, size, iters
		}
		return s
	}
	mse := func(m string) Spec { return at("mse", m, 64, 8) }
	gauss := func(m string) Spec { return at("gauss", m, 128, 0) }
	em3d := func(m string) Spec { return at("em3d", m, 250, 12) }
	lcp := func(app, m string) Spec { return at(app, m, 512, 0) }
	flat, binary := gauss("mp"), gauss("mp")
	flat.Shape, binary.Shape = "flat", "binary"
	big, local, flush := em3d("sm"), em3d("sm"), em3d("sm")
	big.CacheBytes, local.Policy, flush.Flush = 1<<20, "local", true
	return []NamedSpec{
		{"mse-mp", mse("mp")}, {"mse-sm", mse("sm")},
		{"gauss-mp", gauss("mp")}, {"gauss-sm", gauss("sm")},
		{"gauss-mp-flat", flat}, {"gauss-mp-binary", binary},
		{"em3d-mp", em3d("mp")}, {"em3d-sm", em3d("sm")},
		{"em3d-sm-1mb", big}, {"em3d-sm-local", local}, {"em3d-sm-flush", flush},
		{"lcp-mp", lcp("lcp", "mp")}, {"lcp-sm", lcp("lcp", "sm")},
		{"alcp-mp", lcp("alcp", "mp")}, {"alcp-sm", lcp("alcp", "sm")},
	}
}
