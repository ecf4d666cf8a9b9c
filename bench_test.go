// Package repro's benchmark harness: one benchmark per paper table (4-23),
// plus the §5.2 broadcast-tree ablation and microbenchmarks of the
// machines' primitive operations. Each benchmark runs the full simulated
// experiment that the table derives from and reports the simulated cycle
// counts as custom metrics (Mcycles of elapsed virtual time and of
// per-processor average time), alongside Go's wall-clock ns/op for the
// simulator itself.
//
// Table benchmarks execute through internal/runner with the specs from
// runner.TableSpec — the same Spec type the golden replay-equivalence
// tests consume — so a benchmark provably simulates a configuration the
// correctness suite verified.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/runner"
	"repro/internal/stats"

	"repro/internal/apps/em3d"
)

// report attaches the simulated results to the benchmark output.
func report(b *testing.B, res *machine.Result) {
	b.ReportMetric(float64(res.Elapsed)/1e6, "sim-Mcycles")
	b.ReportMetric(res.Summary.TotalCyclesAll()/1e6, "proc-Mcycles")
}

// benchRun executes one runner spec and reports the standard metrics,
// returning the outcome for benchmark-specific extras. Workers is 1, the
// mode wwtsim, wwtsweep, wwtserved and wwtbench all run; only
// bench_parallel_test.go varies it.
func benchRun(b *testing.B, spec runner.Spec) *runner.Outcome {
	b.Helper()
	out, err := runner.Run(spec, runner.Options{Workers: 1})
	if err != nil {
		b.Fatalf("runner: %v", err)
	}
	if out.Res.Err != nil {
		b.Fatalf("run aborted: %v", out.Res.Err)
	}
	report(b, out.Res)
	return out
}

// steps extracts the iteration count from an LCP outcome's application
// answer line ("steps=N residual=...").
func steps(b *testing.B, out *runner.Outcome) float64 {
	b.Helper()
	var n int64
	if _, err := fmt.Sscanf(out.AppLine, "steps=%d", &n); err != nil {
		b.Fatalf("no step count in app line %q: %v", out.AppLine, err)
	}
	return float64(n)
}

// --- MSE: Tables 4-7 ---

func BenchmarkTable04_MSE_MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("mse", "mp"))
	}
}

func BenchmarkTable05_MSE_SM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("mse", "sm"))
	}
}

func BenchmarkTable06_MSE_MP_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("mse", "mp"))
		b.ReportMetric(out.Res.Summary.CountsAll(stats.CntBytesData)/1e6, "data-MB")
	}
}

func BenchmarkTable07_MSE_SM_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("mse", "sm"))
		b.ReportMetric(out.Res.Summary.CountsAll(stats.CntSharedMissRemote), "remote-misses")
	}
}

// --- Gauss: Tables 8-11 and the §5.2 ablation ---

func BenchmarkTable08_Gauss_MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("gauss", "mp"))
	}
}

func BenchmarkTable09_Gauss_SM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("gauss", "sm"))
	}
}

func BenchmarkTable10_Gauss_MP_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("gauss", "mp"))
		b.ReportMetric(out.Res.Summary.CountsAll(stats.CntChannelWrites), "channel-writes")
	}
}

func BenchmarkTable11_Gauss_SM_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("gauss", "sm"))
		b.ReportMetric(out.Res.Summary.CountsAll(stats.CntSharedMissRemote), "remote-misses")
	}
}

// BenchmarkAblationGaussBroadcast reproduces the broadcast/reduction tuning
// study: flat (paper: 119.3M comm cycles), binary tree with CMMD-level
// messages (40.9M), lop-sided tree with active messages and channels
// (30.1M).
func BenchmarkAblationGaussBroadcast(b *testing.B) {
	for _, shape := range []string{"flat", "binary", "lopsided"} {
		b.Run(shape, func(b *testing.B) {
			spec := runner.TableSpec("gauss", "mp")
			spec.Shape = shape
			for i := 0; i < b.N; i++ {
				out := benchRun(b, spec)
				s := out.Res.Summary
				comm := s.CyclesAll(stats.LibComp) + s.CyclesAll(stats.NetAccess) +
					s.CyclesAll(stats.BarrierWait)
				b.ReportMetric(comm/1e6, "comm-Mcycles")
			}
		})
	}
}

// --- EM3D: Tables 12-17 ---

func BenchmarkTable12_EM3D_MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("em3d", "mp"))
	}
}

func BenchmarkTable13_EM3D_MP_MainLoopEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("em3d", "mp"))
		b.ReportMetric(out.Res.Summary.Counts(em3d.PhaseMain, stats.CntBytesData)/1e6, "main-data-MB")
	}
}

func BenchmarkTable14_EM3D_SM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, runner.TableSpec("em3d", "sm"))
	}
}

func BenchmarkTable15_EM3D_SM_MainLoopEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("em3d", "sm"))
		s := out.Res.Summary
		b.ReportMetric(s.Counts(em3d.PhaseMain, stats.CntSharedMissRemote), "main-remote-misses")
		b.ReportMetric(s.Counts(em3d.PhaseMain, stats.CntWriteFaults), "main-write-faults")
	}
}

// BenchmarkTable16_EM3D_SM_1MBCache is the cache-size ablation: the paper's
// main-loop total drops from 130M to 61M cycles with a 1 MB cache.
func BenchmarkTable16_EM3D_SM_1MBCache(b *testing.B) {
	spec := runner.TableSpec("em3d", "sm")
	spec.CacheBytes = 1 << 20
	for i := 0; i < b.N; i++ {
		out := benchRun(b, spec)
		b.ReportMetric(out.Res.Summary.TotalCycles(em3d.PhaseMain)/1e6, "main-Mcycles")
	}
}

// BenchmarkTable17_EM3D_SM_LocalAlloc is the allocation-policy ablation:
// local placement runs the main loop in about two thirds the round-robin
// time (paper: 86.3M vs 130.0M cycles).
func BenchmarkTable17_EM3D_SM_LocalAlloc(b *testing.B) {
	spec := runner.TableSpec("em3d", "sm")
	spec.Policy = "local"
	for i := 0; i < b.N; i++ {
		out := benchRun(b, spec)
		b.ReportMetric(out.Res.Summary.TotalCycles(em3d.PhaseMain)/1e6, "main-Mcycles")
	}
}

// --- LCP: Tables 18-23 ---

func BenchmarkTable18_LCP_MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("lcp", "mp"))
		b.ReportMetric(steps(b, out), "steps")
	}
}

func BenchmarkTable19_LCP_SM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("lcp", "sm"))
		b.ReportMetric(steps(b, out), "steps")
	}
}

func BenchmarkTable20_ALCP_MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("alcp", "mp"))
		b.ReportMetric(steps(b, out), "steps")
	}
}

func BenchmarkTable21_ALCP_SM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := benchRun(b, runner.TableSpec("alcp", "sm"))
		b.ReportMetric(steps(b, out), "steps")
	}
}

func BenchmarkTable22_LCP_MP_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sync := benchRun(b, runner.TableSpec("lcp", "mp"))
		async, err := runner.Run(runner.TableSpec("alcp", "mp"), runner.Options{Workers: 1})
		if err != nil || async.Res.Err != nil {
			b.Fatalf("alcp run: %v / %v", err, async.Res.Err)
		}
		b.ReportMetric(sync.Res.Summary.CountsAll(stats.CntChannelWrites), "sync-channel-writes")
		b.ReportMetric(async.Res.Summary.CountsAll(stats.CntChannelWrites), "async-channel-writes")
	}
}

func BenchmarkTable23_LCP_SM_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sync := benchRun(b, runner.TableSpec("lcp", "sm"))
		async, err := runner.Run(runner.TableSpec("alcp", "sm"), runner.Options{Workers: 1})
		if err != nil || async.Res.Err != nil {
			b.Fatalf("alcp run: %v / %v", err, async.Res.Err)
		}
		shared := func(o *runner.Outcome) float64 {
			s := o.Res.Summary
			return s.CountsAll(stats.CntSharedMissLocal) + s.CountsAll(stats.CntSharedMissRemote)
		}
		b.ReportMetric(shared(sync), "sync-shared-misses")
		b.ReportMetric(shared(async), "async-shared-misses")
	}
}

// --- Microbenchmarks of the machines' primitive operations ---

// BenchmarkMicroRemoteMiss measures one idle remote shared-memory miss
// (the paper: ~250 cycles).
func BenchmarkMicroRemoteMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cost.Default(2)
		var cyc int64
		m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
			if n.ID == 1 {
				v := n.RT.GMallocFOn(0, 4)
				before := n.P.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss)
				v.Get(n.Mem, 0)
				cyc = n.P.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss) - before
			}
			n.Barrier()
		})
		m.Run()
		b.ReportMetric(float64(cyc), "sim-cycles")
	}
}

// BenchmarkMicroAMRoundTrip measures an active-message request/reply pair.
func BenchmarkMicroAMRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cost.Default(2)
		m := machine.NewMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
			got := 0
			var h int
			h = n.AM.Register(func(pkt *ni.Packet) {
				got++
				if n.ID == 1 {
					n.AM.Request(0, h, pkt.Args, 8, nil)
				}
			})
			if n.ID == 0 {
				n.AM.Request(1, h, [4]uint64{42}, 8, nil)
			}
			n.AM.PollUntil(func() bool { return got > 0 })
			n.Barrier()
		})
		res := m.Run()
		b.ReportMetric(float64(res.Elapsed), "sim-cycles")
	}
}

// BenchmarkMicroBarrier measures the hardware barrier with balanced
// arrival (the paper: 100 cycles from last arrival).
func BenchmarkMicroBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cost.Default(32)
		m := machine.NewMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
			for k := 0; k < 100; k++ {
				n.Barrier()
			}
		})
		res := m.Run()
		b.ReportMetric(float64(res.Elapsed)/100, "sim-cycles/barrier")
	}
}

// BenchmarkMicroBlockTransfer measures a 1 KB synchronous block transfer
// (RTS/CTS handshake plus streamed data packets) end to end.
func BenchmarkMicroBlockTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cost.Default(2)
		m := machine.NewMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
			const words = 128
			buf := n.AllocF(words)
			if n.ID == 0 {
				n.EP.RecvBlock(1, &buf, 0, words)
			} else {
				for k := 0; k < words; k++ {
					buf.Set(n.Mem, k, float64(k))
				}
				n.EP.SendBlock(0, 1, &buf, 0, words)
			}
			n.Barrier()
		})
		res := m.Run()
		b.ReportMetric(float64(res.Elapsed), "sim-cycles")
	}
}

// BenchmarkMicroMCSLockHandoff measures contended MCS lock handoff.
func BenchmarkMicroMCSLockHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cost.Default(8)
		var lock *parmacs.Lock
		var counter memsim.IVec
		m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
			if n.ID == 0 {
				lock = parmacs.NewLock(n.RT)
				counter = n.RT.GMallocI(0, 1)
				n.RT.Create(n.P)
			} else {
				n.RT.WaitCreate(n.P)
			}
			n.Barrier()
			for k := 0; k < 20; k++ {
				lock.Acquire(n.Mem)
				counter.Set(n.Mem, 0, counter.V[0]+1)
				lock.Release(n.Mem)
			}
			n.Barrier()
		})
		res := m.Run()
		b.ReportMetric(float64(res.Elapsed)/(8*20), "sim-cycles/handoff")
	}
}

// BenchmarkAblationEM3DFlush measures the §5.3.4 software-flush proposal:
// consumers flush remote values after use, sending the directory a
// replacement hint so producers upgrade without invalidation rounds. The
// flush variant has no Spec knob, so this ablation drives the app package
// directly at table scale.
func BenchmarkAblationEM3DFlush(b *testing.B) {
	for _, flush := range []bool{false, true} {
		name := "base"
		run := em3d.RunSM
		if flush {
			name = "flush"
			run = em3d.RunSMFlush
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := run(cost.Default(runner.TableProcs), parmacs.RoundRobin, em3d.DefaultParams())
				report(b, out.Res)
				b.ReportMetric(out.Res.Summary.TotalCycles(em3d.PhaseMain)/1e6, "main-Mcycles")
			}
		})
	}
}

// BenchmarkScalingGaussSM sweeps processor counts (the simulators support
// 1-4096; the paper ran 32) to show directory queuing growing with scale —
// "these delays ... will become untenable for larger systems" (§5.2).
func BenchmarkScalingGaussSM(b *testing.B) {
	for _, procs := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("procs-%02d", procs), func(b *testing.B) {
			spec := runner.TableSpec("gauss", "sm")
			spec.Procs = procs
			for i := 0; i < b.N; i++ {
				benchRun(b, spec)
			}
		})
	}
}

var sinkTLB bool

// BenchmarkMicroTLBHit measures the host cost of the simulated TLB's hit
// path (MRU filter plus open-addressed probe) — the single hottest
// operation in the whole simulator.
func BenchmarkMicroTLBHit(b *testing.B) {
	t := memsim.NewTLB(64, 4096)
	for p := 0; p < 64; p++ {
		t.Access(uint64(p) << 12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate over 8 resident pages: misses the MRU filter half the
		// time, exercising the probe path without ever faulting.
		sinkTLB = t.Access(uint64(i&7) << 12)
	}
}
