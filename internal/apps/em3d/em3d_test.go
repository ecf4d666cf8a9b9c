package em3d

import (
	"math"
	"testing"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/parmacs"
	"repro/internal/stats"
)

func smallParams() Params {
	return Params{NodesPer: 60, Degree: 5, RemotePct: 20, Iters: 8, Seed: 3}
}

func TestGraphGeneratorProperties(t *testing.T) {
	g := genGraph(smallParams(), 4)
	remote := 0
	total := 0
	for p := 0; p < 4; p++ {
		for _, lists := range [][]edge{g.eIn[p], g.hIn[p]} {
			for _, ed := range lists {
				total++
				sp := int(ed.srcProc)
				if sp != p {
					remote++
					if sp != (p+1)%4 && sp != (p+3)%4 {
						t.Fatalf("remote edge to non-neighbor %d from %d", sp, p)
					}
				}
				if ed.srcIdx < 0 || int(ed.srcIdx) >= 60 {
					t.Fatalf("source index out of range: %d", ed.srcIdx)
				}
			}
		}
	}
	frac := float64(remote) / float64(total)
	if frac < 0.12 || frac > 0.28 {
		t.Errorf("remote fraction %.2f, want near 0.20", frac)
	}
}

func TestEM3DMPMatchesReference(t *testing.T) {
	out := RunMP(cost.Default(4), cmmd.LopSided, smallParams())
	if out.MaxErr > 1e-12 {
		t.Errorf("MP deviates from reference by %v", out.MaxErr)
	}
}

func TestEM3DSMMatchesReference(t *testing.T) {
	out := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	if out.MaxErr > 1e-12 {
		t.Errorf("SM deviates from reference by %v", out.MaxErr)
	}
}

func TestEM3DSMLocalPolicyMatchesReference(t *testing.T) {
	out := RunSM(cost.Default(4), parmacs.Local, smallParams())
	if out.MaxErr > 1e-12 {
		t.Errorf("SM/local deviates from reference by %v", out.MaxErr)
	}
}

func TestEM3DMPandSMAgree(t *testing.T) {
	mp := RunMP(cost.Default(4), cmmd.LopSided, smallParams())
	sm := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	for p := range mp.E {
		for i := range mp.E[p] {
			if d := math.Abs(mp.E[p][i] - sm.E[p][i]); d > 1e-12 {
				t.Fatalf("E[%d][%d] differs by %v", p, i, d)
			}
		}
	}
}

func TestEM3DMPChannelWriteCount(t *testing.T) {
	// Per processor: 2 neighbors x 2 half-steps x iters, plus the initial
	// H shipment and the init-phase edge-info sends.
	par := smallParams()
	out := RunMP(cost.Default(4), cmmd.LopSided, par)
	s := out.Res.Summary
	cwMain := s.Counts(PhaseMain, stats.CntChannelWrites)
	want := float64(2*2*par.Iters - 2) // last H send skipped; initial send in init phase
	if math.Abs(cwMain-want) > 4 {
		t.Errorf("main-loop channel writes per proc = %v, want about %v", cwMain, want)
	}
}

func TestEM3DPhaseSplit(t *testing.T) {
	out := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	s := out.Res.Summary
	if s.NumPhases() < 2 {
		t.Fatal("expected init and main phases")
	}
	if s.Cycles(PhaseInit, stats.LockWait) == 0 {
		t.Error("SM initialization should spend time in locks")
	}
	if s.Cycles(PhaseMain, stats.LockWait) != 0 {
		t.Error("SM main loop must not use locks")
	}
	if s.Cycles(PhaseMain, stats.BarrierWait) == 0 {
		t.Error("SM main loop should use barriers")
	}
}

func TestEM3DSMProducerConsumerMisses(t *testing.T) {
	// The invalidation protocol makes every remote value a fresh miss each
	// iteration — shared misses in the main loop should vastly outnumber
	// private ones (paper Table 15: 109 private vs 330,044 shared).
	out := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	s := out.Res.Summary
	shared := s.Counts(PhaseMain, stats.CntSharedMissLocal) +
		s.Counts(PhaseMain, stats.CntSharedMissRemote)
	priv := s.Counts(PhaseMain, stats.CntPrivateMisses)
	if shared < 20*priv || shared == 0 {
		t.Errorf("shared misses (%v) should dwarf private (%v)", shared, priv)
	}
}

func TestEM3DMPFasterThanSM(t *testing.T) {
	// The paper's headline: EM3D-MP runs about twice as fast as EM3D-SM.
	par := Params{NodesPer: 200, Degree: 8, RemotePct: 20, Iters: 10, Seed: 2}
	mp := RunMP(cost.Default(8), cmmd.LopSided, par)
	sm := RunSM(cost.Default(8), parmacs.RoundRobin, par)
	if mp.Res.Elapsed >= sm.Res.Elapsed {
		t.Errorf("MP (%d) should beat SM (%d)", mp.Res.Elapsed, sm.Res.Elapsed)
	}
}

func TestEM3DDeterminism(t *testing.T) {
	a := RunMP(cost.Default(4), cmmd.LopSided, smallParams())
	b := RunMP(cost.Default(4), cmmd.LopSided, smallParams())
	if a.Res.Elapsed != b.Res.Elapsed {
		t.Errorf("MP nondeterministic: %d vs %d", a.Res.Elapsed, b.Res.Elapsed)
	}
	c := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	d := RunSM(cost.Default(4), parmacs.RoundRobin, smallParams())
	if c.Res.Elapsed != d.Res.Elapsed {
		t.Errorf("SM nondeterministic: %d vs %d", c.Res.Elapsed, d.Res.Elapsed)
	}
}

func TestEM3DSMFlushVariantCorrectAndFewerInvalidations(t *testing.T) {
	par := smallParams()
	base := RunSM(cost.Default(4), parmacs.RoundRobin, par)
	par.Flush = true
	flush := RunSM(cost.Default(4), parmacs.RoundRobin, par)
	if flush.MaxErr > 1e-12 {
		t.Errorf("flush variant deviates from reference by %v", flush.MaxErr)
	}
	// Flushing removes the consumers from the copyset, so the producer's
	// upgrades find no sharers to invalidate: protocol control traffic
	// (invalidations + acknowledgements) drops.
	bc := base.Res.Summary.Counts(PhaseMain, stats.CntBytesControl)
	fc := flush.Res.Summary.Counts(PhaseMain, stats.CntBytesControl)
	if fc >= bc {
		t.Errorf("flush variant control bytes %v, want fewer than base %v", fc, bc)
	}
}

func TestEM3DScalesAcrossProcessorCounts(t *testing.T) {
	// The simulators support 1-4096 processors; verify the same
	// program runs correctly at several sizes and that per-processor work
	// shrinks as processors grow.
	par := Params{NodesPer: 64, Degree: 4, RemotePct: 20, Iters: 4, Seed: 9}
	var prevComp float64
	for _, procs := range []int{2, 4, 8, 16} {
		out := RunMP(cost.Default(procs), cmmd.LopSided, par)
		if out.MaxErr > 1e-12 {
			t.Fatalf("procs=%d: deviates by %v", procs, out.MaxErr)
		}
		comp := out.Res.Summary.CyclesAll(stats.Comp)
		if prevComp > 0 && comp > prevComp*1.5 {
			t.Errorf("procs=%d: per-proc computation grew: %v -> %v", procs, prevComp, comp)
		}
		prevComp = comp
	}
}

// TestEM3DSMFlushGolden pins the software-flush variant to literals recorded
// when it was still a separate coroutine body. runner.Spec reaches the
// variant (Flush), and golden.json pins it at the quick paper shape, but no
// Spec reaches smallParams' Degree 5 and Seed 3, so this test stays.
func TestEM3DSMFlushGolden(t *testing.T) {
	par := smallParams()
	par.Flush = true
	out := RunSM(cost.Default(4), parmacs.RoundRobin, par)
	if out.Res.Elapsed != 1404524 {
		t.Errorf("elapsed %d, want 1404524", out.Res.Elapsed)
	}
	var main int64
	for _, a := range out.Res.Accts {
		main += a.TotalCycles(PhaseMain)
	}
	if main != 1778380 {
		t.Errorf("main-phase cycles over all processors %d, want 1778380", main)
	}
}
