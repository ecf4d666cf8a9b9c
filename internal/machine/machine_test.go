package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestRunMPBasics(t *testing.T) {
	res := RunMP(cost.Default(4), cmmd.Binary, func(n *MPNode) {
		n.Compute(int64(100 * (n.ID + 1)))
		n.Barrier()
	})
	if res.Elapsed < 400 {
		t.Errorf("elapsed = %d, want at least the slowest node's 400", res.Elapsed)
	}
	if got := res.Summary.CyclesAll(stats.Comp); got != 250 {
		t.Errorf("avg computation = %v, want 250", got)
	}
	if len(res.Accts) != 4 {
		t.Errorf("accts = %d", len(res.Accts))
	}
}

func TestRunSMBasics(t *testing.T) {
	res := RunSM(cost.Default(4), parmacs.RoundRobin, func(n *SMNode) {
		v := n.AllocF(8)
		v.Set(n.Mem, 0, 1.5)
		if got := v.Get(n.Mem, 0); got != 1.5 {
			t.Errorf("private round trip: %v", got)
		}
		n.Barrier()
	})
	if res.Summary.CountsAll(stats.CntLocalMisses) == 0 {
		t.Error("no private misses recorded")
	}
}

// TestUnknownReduceOpAborts: a reduction with an undefined operator is a
// typed abort on both machines, software tree or combining barrier alike —
// every node fails at the entry of its reduction, before the operator can
// reach a fold (on the message-passing machine that fold runs in a poll
// handler at the parent, where it could only panic).
func TestUnknownReduceOpAborts(t *testing.T) {
	const bad = sim.ReduceOp(99)
	for _, hw := range []bool{false, true} {
		cfg := cost.Default(4)
		cfg.HWCombining = hw
		mp := RunMP(cfg, cmmd.Binary, func(n *MPNode) {
			n.Comm.Reduce(0, 1, int64(n.ID), bad)
		})
		if !errors.Is(mp.Err, sim.ErrUnknownOp) {
			t.Errorf("mp hw=%v: run error %v, want sim.ErrUnknownOp", hw, mp.Err)
		}
		var red *parmacs.Reduction
		sm := NewSM(cfg, parmacs.RoundRobin, func(n *SMNode) {
			red.Reduce(n.Mem, 1, int64(n.ID), bad, parmacs.SyncCats)
		})
		red = parmacs.NewReduction(sm.RT) // host-side, before any body runs
		if res := sm.Run(); !errors.Is(res.Err, sim.ErrUnknownOp) {
			t.Errorf("sm hw=%v: run error %v, want sim.ErrUnknownOp", hw, res.Err)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := cost.Default(4)
	cfg.BlockBytes = 24
	NewMP(cfg, cmmd.Binary, func(*MPNode) {})
}

func TestAllocationsAreDistinct(t *testing.T) {
	RunMP(cost.Default(2), cmmd.Binary, func(n *MPNode) {
		a := n.AllocF(10)
		b := n.AllocI(10)
		c := n.AllocFSized(10, 4)
		if a.Addr(9) >= b.Addr(0) || b.Addr(9) >= c.Addr(0) {
			t.Error("allocations overlap")
		}
		n.Barrier()
	})
}

func TestPhaseBucketsSeparate(t *testing.T) {
	res := RunMP(cost.Default(2), cmmd.Binary, func(n *MPNode) {
		n.Compute(10)
		n.Phase(1)
		n.Compute(25)
		n.Barrier()
	})
	if got := res.Summary.Cycles(0, stats.Comp); got != 10 {
		t.Errorf("phase 0 = %v", got)
	}
	if got := res.Summary.Cycles(1, stats.Comp); got != 25 {
		t.Errorf("phase 1 = %v", got)
	}
}

// TestStepProgramStartsNoCoroutine: which constructor built the machine
// decides the processor form, and nothing else does. A step program never
// starts a coroutine — at P=32 its machine, on either side, runs with no
// processor coroutine — while a blocking program still gets one per node.
func TestStepProgramStartsNoCoroutine(t *testing.T) {
	const procs, quanta = 32, 20
	cfg := cost.Default(procs)
	step := func() func(*sim.Proc) sim.StepStatus {
		k := 0
		return func(p *sim.Proc) sim.StepStatus {
			if k == quanta {
				return sim.StepDone
			}
			k++
			p.Compute(cfg.NetLatency)
			return sim.StepYield
		}
	}
	var mpStep StepProgramMP = func(*MPNode) func(*sim.Proc) sim.StepStatus { return step() }
	var smStep StepProgramSM = func(*SMNode) func(*sim.Proc) sim.StepStatus { return step() }
	// highWater runs the machine and returns the most processor coroutines
	// seen at a quantum boundary, over the count before it was built.
	// Coroutines are counted by their stacks, so goroutines that other code
	// starts or ends meanwhile do not move the count.
	highWater := func(base int, eng *sim.Engine) int {
		t.Helper()
		high := 0
		eng.AddQuantumHook(func(sim.Time) {
			if n := coroutines(); n > high {
				high = n
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return high - base
	}

	base := coroutines()
	if d := highWater(base, NewMPStep(cfg, cmmd.LopSided, mpStep).Eng); d > 2 {
		t.Errorf("NewMPStep machine ran with %d coroutines: a step program must start no coroutine", d)
	}
	base = coroutines()
	if d := highWater(base, NewSMStep(cfg, parmacs.RoundRobin, smStep).Eng); d > 2 {
		t.Errorf("NewSMStep machine ran with %d coroutines: a step program must start no coroutine", d)
	}
	base = coroutines()
	blocking := NewMP(cfg, cmmd.LopSided, func(n *MPNode) {
		for k := 0; k < quanta; k++ {
			n.Compute(cfg.NetLatency)
			n.P.Interact()
		}
	})
	if d := highWater(base, blocking.Eng); d < procs {
		t.Errorf("NewMP machine ran with %d coroutines, want one coroutine per node (%d)", d, procs)
	}
}

// coroutines counts the goroutines running a processor's coroutine body.
func coroutines() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "sim.(*Proc).start") {
			count++
		}
	}
	return count
}

// TestAccountingCheckNamesTheProcessor checks the end-of-run accounting
// contract on both machines: a completed run whose processor charged a
// category without advancing its clock ends with an *AccountingError
// naming that processor, its category totals and its clock, and a run that
// keeps the books passes.
func TestAccountingCheckNamesTheProcessor(t *testing.T) {
	leak := func(id int, p *sim.Proc) {
		p.Compute(40)
		if id == 2 {
			p.Acct.Charge(stats.LocalMiss, 7) // charged, clock not advanced
		}
	}
	results := map[string]*Result{
		"mp": RunMP(cost.Default(4), cmmd.Binary, func(n *MPNode) { leak(n.ID, n.P); n.Barrier() }),
		"sm": RunSM(cost.Default(4), parmacs.RoundRobin, func(n *SMNode) { leak(n.ID, n.P); n.Barrier() }),
	}
	for name, res := range results {
		var ae *AccountingError
		if !errors.As(res.Err, &ae) {
			t.Fatalf("%s: Err = %v, want an *AccountingError", name, res.Err)
		}
		if ae.Proc != 2 || ae.Cycles[stats.LocalMiss] != 7 || ae.Cycles[stats.Comp] != 40 {
			t.Errorf("%s: %+v, want proc 2 with LocalMiss=7 and Comp=40", name, ae)
		}
		if ae.Clock != res.Accts[2].TotalCycles(0)-7 {
			t.Errorf("%s: clock %d, want the charged cycles less the leak", name, ae.Clock)
		}
		t.Log(ae)
	}
	clean := RunMP(cost.Default(4), cmmd.Binary, func(n *MPNode) { n.Compute(40); n.Barrier() })
	if clean.Err != nil {
		t.Errorf("balanced run: %v", clean.Err)
	}
}

// TestPacketConservationCheck checks the end-of-run packet contract on the
// MP machine: a completed run whose network counters do not balance ends
// with an *ni.ConservationError, and a run that ends right after a send
// balances, because the engine delivers its trailing packets.
func TestPacketConservationCheck(t *testing.T) {
	ping := func(n *MPNode) {
		if n.ID == 0 {
			n.NI.Send(&ni.Packet{Dst: 1})
		} else {
			n.NI.WaitPacket(stats.NetAccess)
			n.NI.Recv()
		}
		n.Barrier()
	}
	if res := RunMP(cost.Default(2), cmmd.Binary, ping); res.Err != nil {
		t.Errorf("balanced run: %v", res.Err)
	}
	m := NewMP(cost.Default(2), cmmd.Binary, ping)
	m.Net.Injected++ // a packet the network never accounts for
	var ce *ni.ConservationError
	if res := m.Run(); !errors.As(res.Err, &ce) || ce.Injected != 2 || ce.Delivered != 1 {
		t.Errorf("Err = %v, want an *ni.ConservationError with 2 injected and 1 delivered", res.Err)
	}

	m = NewMP(cost.Default(2), cmmd.Binary, func(n *MPNode) {
		if n.ID == 0 {
			n.P.Compute(n.Cfg.NetLatency - 1)
			n.NI.Send(&ni.Packet{Dst: 1})
		}
	})
	if res := m.Run(); res.Err != nil || m.Net.Delivered != 1 {
		t.Errorf("run ending before its packet arrives: Err = %v, %d delivered, want nil and 1", res.Err, m.Net.Delivered)
	}
}
