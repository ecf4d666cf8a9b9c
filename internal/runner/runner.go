// Package runner builds and executes one application/machine configuration
// from a serializable specification, with optional checkpointing, planned
// stops, and replay-verified resume.
//
// This is the layer behind wwtsim's -checkpoint-every/-resume/-run-until
// flags and the replay-equivalence test harness. A Spec round-trips through
// JSON inside every snapshot, so a resume rebuilds the identical machine
// from the file alone. Resume is replay-based (see package snapshot): the
// run re-executes from cycle zero and, at the recorded checkpoint cycle,
// the reconstructed machine state must hash to the snapshot's state hash
// and the accounting must be byte-identical to its stats — any mismatch
// aborts with a *ReplayDivergenceError naming what diverged.
package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/lcp"
	"repro/internal/apps/mse"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// MaxProcs bounds Spec.Procs. 4096 comfortably covers the scaling studies
// on the roadmap (the paper's machines stop at 64; the 1024-proc synthetic
// study needs headroom beyond that) while still rejecting nonsense.
const MaxProcs = 4096

// Spec is a complete, JSON-serializable run description: everything needed
// to rebuild the identical machine and program. It is stored verbatim in
// every snapshot.
type Spec struct {
	App     string `json:"app"`     // mse | gauss | em3d | lcp | alcp
	Machine string `json:"machine"` // mp | sm
	Procs   int    `json:"procs"`

	CacheBytes int    `json:"cache_bytes,omitempty"` // 0 = paper default (256 KB)
	Shape      string `json:"shape,omitempty"`       // flat | binary | lopsided (default)
	Policy     string `json:"policy,omitempty"`      // rr (default) | local
	Size       int    `json:"size,omitempty"`        // app-specific size override
	Iters      int    `json:"iters,omitempty"`       // iteration override

	Faults     *cost.FaultsConfig   `json:"faults,omitempty"`
	SMCheck    bool                 `json:"sm_check,omitempty"`
	SMFaults   *cost.SMFaultsConfig `json:"sm_faults,omitempty"`
	SMWatchdog int64                `json:"sm_watchdog,omitempty"`

	// HWCombining arms the in-network hardware combining tree ablation:
	// reductions deposit at the network port instead of ascending the
	// software tree (cost.Config.HWCombining). Part of Spec — it changes the
	// simulated hardware, so it must survive the snapshot round-trip.
	HWCombining bool `json:"hw_combining,omitempty"`

	// StepProcs is decode-only and has no effect: it once selected the
	// processor form, which now follows the program (a step program runs as
	// step processors, a blocking one as coroutines). The field stays so
	// that stored specs carrying "step_procs" — sweep matrices, WAL submit
	// records, snapshots — decode and re-encode unchanged; nothing reads it,
	// and it is not part of CacheKey.
	StepProcs bool `json:"step_procs,omitempty"`
}

// Validate rejects specs that name no runnable configuration.
func (s *Spec) Validate() error {
	switch s.App {
	case "mse", "gauss", "em3d", "lcp", "alcp":
	default:
		return fmt.Errorf("runner: unknown app %q", s.App)
	}
	switch s.Machine {
	case "mp", "sm":
	default:
		return fmt.Errorf("runner: unknown machine %q", s.Machine)
	}
	if s.Procs < 1 || s.Procs > MaxProcs {
		return fmt.Errorf("runner: procs %d out of supported range [1,%d]", s.Procs, MaxProcs)
	}
	if s.CacheBytes < 0 || s.Size < 0 || s.Iters < 0 {
		return fmt.Errorf("runner: negative size/iteration override")
	}
	switch s.Shape {
	case "", "flat", "binary", "lopsided":
	default:
		return fmt.Errorf("runner: unknown shape %q", s.Shape)
	}
	switch s.Policy {
	case "", "rr", "local":
	default:
		return fmt.Errorf("runner: unknown policy %q", s.Policy)
	}
	if s.Faults != nil && s.Machine != "mp" {
		return fmt.Errorf("runner: network fault injection requires machine mp")
	}
	if (s.SMCheck || s.SMFaults != nil || s.SMWatchdog > 0) && s.Machine != "sm" {
		return fmt.Errorf("runner: coherence robustness controls require machine sm")
	}
	// The row-partitioned apps give every processor N/P rows, and LCP-MP's
	// butterfly all-gather pairs processors across log2(P) stages.
	if n := s.rows(); n%s.Procs != 0 {
		return fmt.Errorf("runner: %s size %d is not divisible by procs %d", s.App, n, s.Procs)
	}
	if s.App == "lcp" && s.Machine == "mp" && s.Procs&(s.Procs-1) != 0 {
		return fmt.Errorf("runner: lcp/mp butterfly exchange needs a power-of-two procs, got %d", s.Procs)
	}
	return nil
}

// gaussN is Gauss's paper-default system size.
const gaussN = 512

// rows returns the system size N of the row-partitioned apps (gauss, lcp,
// alcp) after the Size override, and 0 for the others.
func (s *Spec) rows() int {
	var n int
	switch s.App {
	case "gauss":
		n = gaussN
	case "lcp", "alcp":
		n = lcp.DefaultParams().N
	default:
		return 0
	}
	if s.Size > 0 {
		n = s.Size
	}
	return n
}

// Config derives the hardware configuration the spec implies.
func (s *Spec) Config() cost.Config {
	cfg := cost.Default(s.Procs)
	if s.CacheBytes > 0 {
		cfg.CacheBytes = s.CacheBytes
	}
	cfg.Faults = s.Faults
	cfg.SMCheck = s.SMCheck
	cfg.SMFaults = s.SMFaults
	cfg.SMWatchdog = s.SMWatchdog
	cfg.HWCombining = s.HWCombining
	return cfg
}

func (s *Spec) shape() cmmd.Shape {
	switch s.Shape {
	case "flat":
		return cmmd.Flat
	case "binary":
		return cmmd.Binary
	default:
		return cmmd.LopSided
	}
}

func (s *Spec) policy() parmacs.Policy {
	if s.Policy == "local" {
		return parmacs.Local
	}
	return parmacs.RoundRobin
}

// SpecFromSnapshot recovers the run specification embedded in a snapshot.
func SpecFromSnapshot(snap *snapshot.Snapshot) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(snap.Spec, &s); err != nil {
		return nil, fmt.Errorf("runner: snapshot spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Options controls checkpointing and resume for one run.
type Options struct {
	// CheckpointEvery, when positive, writes a snapshot at the first quantum
	// boundary at or after every multiple of this many cycles.
	CheckpointEvery sim.Time
	// CheckpointDir is where checkpoint files land (default: current
	// directory). Files are named ckpt-<cycle>.wws.
	CheckpointDir string
	// RunUntil, when positive, stops the run at the first quantum boundary
	// at or after this cycle with a clean *sim.RunStopError.
	RunUntil sim.Time
	// Resume, when non-nil, arms replay verification against this snapshot:
	// at the snapshot's cycle the replayed state and stats must be
	// byte-identical, else the run aborts with a *ReplayDivergenceError.
	Resume *snapshot.Snapshot
	// Deprecated: ignored; dispatch is serial.
	Workers int
	// Interrupt, when non-nil, arms cooperative preemption: once Fire is
	// called (from any goroutine — a wall-clock deadline timer, a drain
	// signal), the run stops at the next quantum boundary, captures a
	// snapshot there into Outcome.Preempted, and aborts with a
	// *PreemptedError. Nothing is written: the snapshot is an ordinary one,
	// so the caller keeps it wherever it likes, and a later Run with Resume
	// picks the job up from that cycle (replay-verified) instead of
	// discarding the work.
	Interrupt *Interrupt
}

// Interrupt is a one-shot, goroutine-safe preemption request. The zero
// value is ready to use; hand the same value to Options.Interrupt and to
// whatever decides to preempt (deadline timer, SIGTERM drain).
type Interrupt struct{ fired atomic.Bool }

// Fire requests preemption. Safe to call from any goroutine, any number of
// times; the run observes it at its next quantum boundary.
func (i *Interrupt) Fire() { i.fired.Store(true) }

// Fired reports whether Fire has been called.
func (i *Interrupt) Fired() bool { return i.fired.Load() }

// PreemptedError is the planned-abort report of an interrupted run: the
// quantum boundary it stopped on. It is a cooperative stop, not a failure —
// the snapshot taken there (Outcome.Preempted) resumes the job.
type PreemptedError struct{ Cycle sim.Time }

func (e *PreemptedError) Error() string {
	return fmt.Sprintf("runner: preempted at cycle %d", e.Cycle)
}

// Checkpoint records one snapshot written during a run.
type Checkpoint struct {
	Cycle sim.Time
	Path  string
}

// Outcome is the result of one run.
type Outcome struct {
	// Res is the machine-level result (summary, elapsed, per-proc accounting,
	// abort error if any).
	Res *machine.Result
	// AppLine is the application's one-line answer summary, formatted exactly
	// as wwtsim prints it (refErr=… / maxErr=… / steps=…).
	AppLine string
	// StatsBytes is the canonical encoding of the final accounting; two runs
	// of the same spec are bit-identical iff these bytes are equal.
	StatsBytes []byte
	// Fingerprint is Hash(StatsBytes), the run's replay-equivalence digest.
	Fingerprint uint64
	// Checkpoints lists the snapshots written, in cycle order.
	Checkpoints []Checkpoint
	// Stopped reports a planned early stop (-run-until); StoppedAt is the
	// quantum boundary it happened on.
	Stopped   bool
	StoppedAt sim.Time
	// Preempted, when non-nil, reports that Options.Interrupt fired: it is
	// the snapshot of the quantum boundary the run stopped on, ready to
	// pass back as Options.Resume.
	Preempted *snapshot.Snapshot
	// Verified reports that resume verification ran and passed.
	Verified bool
}

// ReplayDivergenceError reports a resumed run whose replayed execution did
// not reproduce the snapshot — hidden nondeterminism, a changed binary, or a
// spec that does not match the original run.
type ReplayDivergenceError struct {
	// Cycle is the snapshot's checkpoint cycle.
	Cycle sim.Time
	// What names the first mismatch: "boundary" (the replay's quantum
	// boundaries skipped the checkpoint cycle), "state" (machine image hash),
	// "stats" (accounting bytes), or "end" (the replay finished before
	// reaching the checkpoint cycle).
	What string
	// Want and Got are the snapshot's and the replay's state hashes (zero
	// when What is not "state").
	Want, Got uint64
}

func (e *ReplayDivergenceError) Error() string {
	switch e.What {
	case "state":
		return fmt.Sprintf("runner: replay diverged at cycle %d: state hash %#x, snapshot has %#x",
			e.Cycle, e.Got, e.Want)
	case "end":
		return fmt.Sprintf("runner: replay finished before checkpoint cycle %d", e.Cycle)
	default:
		return fmt.Sprintf("runner: replay diverged at cycle %d: %s mismatch", e.Cycle, e.What)
	}
}

// Run builds the machine the spec describes, installs the requested
// checkpoint/stop/verify hooks, and executes the program to completion (or
// to the planned stop). The returned error covers harness-level failures —
// replay divergence or a checkpoint write error; application-level aborts
// (fault starvation, invariant violations, planned stops) are reported in
// Outcome.Res.Err exactly as a plain run would.
func Run(spec Spec, opts Options) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}

	out := &Outcome{}
	var hookErr error
	finalize := func() {}

	cfg := spec.Config()
	cfg.OnBuild = func(m any) {
		var eng *sim.Engine
		var me interface {
			EncodeState(*snapshot.Enc)
			EncodeStats(*snapshot.Enc)
		}
		switch mm := m.(type) {
		case *machine.MPMachine:
			eng, me = mm.Eng, mm
		case *machine.SMMachine:
			eng, me = mm.Eng, mm
		default:
			return
		}
		// A checkpoint carries the state image's hash, not the image:
		// replay verification compares nothing else.
		capture := func(now sim.Time) *snapshot.Snapshot {
			var se, te snapshot.Enc
			me.EncodeState(&se)
			me.EncodeStats(&te)
			return &snapshot.Snapshot{
				Spec:      specJSON,
				Cycle:     int64(now),
				StateHash: snapshot.Hash(se.Bytes()),
				Stats:     te.Bytes(),
			}
		}
		finalize = func() {
			var te snapshot.Enc
			me.EncodeStats(&te)
			out.StatsBytes = te.Bytes()
			out.Fingerprint = snapshot.Hash(out.StatsBytes)
		}

		// Hook order matters when several fire on the same boundary: verify
		// first (a resumed run must be checked before anything else observes
		// the state), then checkpoint, then the planned stop — so a
		// checkpoint requested at the stop cycle is still written.
		if snap := opts.Resume; snap != nil {
			eng.AddQuantumHook(func(now sim.Time) {
				if out.Verified || hookErr != nil || int64(now) < snap.Cycle {
					return
				}
				div := func(what string, want, got uint64) {
					e := &ReplayDivergenceError{
						Cycle: sim.Time(snap.Cycle), What: what, Want: want, Got: got,
					}
					hookErr = e
					eng.Abort(e)
				}
				// Quantum boundaries are deterministic, so the replay must
				// land on the checkpoint cycle exactly.
				if int64(now) != snap.Cycle {
					div("boundary", 0, 0)
					return
				}
				got := capture(now)
				if got.StateHash != snap.StateHash {
					div("state", snap.StateHash, got.StateHash)
					return
				}
				if !bytes.Equal(got.Stats, snap.Stats) {
					div("stats", 0, 0)
					return
				}
				out.Verified = true
			})
		}
		if every := opts.CheckpointEvery; every > 0 {
			next := every
			eng.AddQuantumHook(func(now sim.Time) {
				if now < next || hookErr != nil {
					return
				}
				for next <= now {
					next += every
				}
				path := filepath.Join(opts.CheckpointDir, fmt.Sprintf("ckpt-%d.wws", now))
				if err := snapshot.AtomicWriteFile(path, snapshot.Encode(capture(now))); err != nil {
					hookErr = err
					eng.Abort(err)
					return
				}
				out.Checkpoints = append(out.Checkpoints, Checkpoint{Cycle: now, Path: path})
			})
		}
		if intr := opts.Interrupt; intr != nil {
			eng.AddQuantumHook(func(now sim.Time) {
				// A cycle-0 checkpoint would resume nothing; defer to the
				// first boundary with real progress behind it.
				if now == 0 || hookErr != nil || out.Preempted != nil || !intr.Fired() {
					return
				}
				out.Preempted = capture(now)
				eng.Abort(&PreemptedError{Cycle: now})
			})
		}
		if opts.RunUntil > 0 {
			eng.StopAt(opts.RunUntil)
		}
	}

	out.Res, out.AppLine = runApp(&spec, cfg)
	finalize()
	if stop, ok := out.Res.Err.(*sim.RunStopError); ok {
		out.Stopped, out.StoppedAt = true, stop.At
	}
	if hookErr != nil {
		return out, hookErr
	}
	if opts.Resume != nil && !out.Verified && !out.Stopped && out.Preempted == nil {
		e := &ReplayDivergenceError{Cycle: sim.Time(opts.Resume.Cycle), What: "end"}
		return out, e
	}
	return out, nil
}

func runApp(spec *Spec, cfg cost.Config) (*machine.Result, string) {
	shape := spec.shape()
	switch spec.App {
	case "mse":
		par := mse.DefaultParams()
		if spec.Size > 0 {
			par.Bodies = spec.Size
		}
		if spec.Iters > 0 {
			par.Iters = spec.Iters
		}
		var out *mse.Output
		if spec.Machine == "mp" {
			out = mse.RunMP(cfg, shape, par)
		} else {
			out = mse.RunSM(cfg, par)
		}
		return out.Res, fmt.Sprintf("refErr=%.3g residual=%.3g", out.RefErr, out.Residual)
	case "gauss":
		par := gauss.Params{N: spec.rows(), Seed: 1}
		var out *gauss.Output
		if spec.Machine == "mp" {
			out = gauss.RunMP(cfg, shape, par)
		} else {
			out = gauss.RunSM(cfg, par)
		}
		return out.Res, fmt.Sprintf("maxErr=%.3g", out.MaxErr)
	case "em3d":
		par := em3d.DefaultParams()
		if spec.Size > 0 {
			par.NodesPer = spec.Size
		}
		if spec.Iters > 0 {
			par.Iters = spec.Iters
		}
		var out *em3d.Output
		if spec.Machine == "mp" {
			out = em3d.RunMP(cfg, shape, par)
		} else {
			out = em3d.RunSM(cfg, spec.policy(), par)
		}
		return out.Res, fmt.Sprintf("maxErr=%.3g", out.MaxErr)
	default: // lcp | alcp, enforced by Validate
		par := lcp.DefaultParams()
		par.N = spec.rows()
		if spec.Iters > 0 {
			par.MaxSteps = spec.Iters
		}
		var out *lcp.Output
		switch {
		case spec.App == "lcp" && spec.Machine == "mp":
			out = lcp.RunMP(cfg, shape, par)
		case spec.App == "lcp":
			out = lcp.RunSM(cfg, par)
		case spec.Machine == "mp":
			out = lcp.RunAMP(cfg, shape, par)
		default:
			out = lcp.RunASM(cfg, par)
		}
		return out.Res, fmt.Sprintf("steps=%d residual=%.3g", out.Steps, out.Residual)
	}
}
