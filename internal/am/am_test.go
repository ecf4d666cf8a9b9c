package am_test

import (
	"slices"
	"testing"

	"repro/internal/am"
	"repro/internal/cost"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rig builds a two-node engine with AM layers.
func rig(t *testing.T, body0, body1 func(p *sim.Proc, a *am.AM)) *sim.Engine {
	t.Helper()
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := ni.NewNetwork(eng, &cfg)
	ams := make([]*am.AM, 2)
	p0 := eng.AddProc(func(p *sim.Proc) { body0(p, ams[0]) })
	p1 := eng.AddProc(func(p *sim.Proc) { body1(p, ams[1]) })
	ams[0] = am.New(net.Attach(p0))
	ams[1] = am.New(net.Attach(p1))
	return eng
}

func TestRegistrationOrderGivesStableIDs(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := ni.NewNetwork(eng, &cfg)
	p := eng.AddProc(func(*sim.Proc) {})
	a := am.New(net.Attach(p))
	h0 := a.Register(func(*ni.Packet) {})
	h1 := a.Register(func(*ni.Packet) {})
	if h0 != 0 || h1 != 1 {
		t.Errorf("handler ids = %d, %d; want 0, 1", h0, h1)
	}
}

func TestDrainDispatchesEverythingAvailable(t *testing.T) {
	var got []uint64
	eng := rig(t,
		func(p *sim.Proc, a *am.AM) {
			h := a.Register(func(*ni.Packet) {})
			for i := 0; i < 5; i++ {
				a.Request(1, h, [4]uint64{uint64(i)}, 0, nil)
			}
		},
		func(p *sim.Proc, a *am.AM) {
			a.Register(func(pkt *ni.Packet) { got = append(got, pkt.Args[0]) })
			// Wait until all five are queued, then drain in one call.
			p.Interact()
			for a.NI.Pending() != 5 {
				p.ChargeStall(stats.LibComp, p.Engine().QuantumEnd()-p.Clock())
				p.Yield()
			}
			var ps am.PollStep
			for !a.StepDrain(&ps) {
				p.Yield()
			}
			if len(got) != 5 {
				t.Errorf("drain handled %d, want 5", len(got))
			}
		})
	eng.Run()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// drainRun has node 0 send n spaced-out requests while node 1 alternates a
// drain with computation until all have arrived: StepDrain driven by a
// yield loop on coroutines, or returning StepYield under step dispatch. It
// returns the arrival order, how many had arrived after each drain, and both
// processors' accounts.
func drainRun(t *testing.T, step bool) (order []uint64, after []int, accts []*stats.Acct) {
	t.Helper()
	const n = 12
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := ni.NewNetwork(eng, &cfg)
	var procs [2]*sim.Proc
	var ams [2]*am.AM
	spacing := func(k int) int64 { return int64(400 * (k % 3)) }
	if !step {
		procs[0] = eng.AddProc(func(p *sim.Proc) {
			for k := 0; k < n; k++ {
				ams[0].Request(1, 0, [4]uint64{uint64(k)}, 0, nil)
				p.Compute(spacing(k))
			}
		})
		procs[1] = eng.AddProc(func(p *sim.Proc) {
			var ps am.PollStep
			for len(order) < n {
				for !ams[1].StepDrain(&ps) {
					p.Yield()
				}
				after = append(after, len(order))
				p.Compute(150)
			}
		})
	} else {
		var (
			k        int
			rs       am.ReqStep
			ps       am.PollStep
			draining bool
		)
		procs[0] = eng.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			for ; k < n; k++ {
				if !ams[0].StepRequest(&rs, 1, 0, [4]uint64{uint64(k)}, 0, nil) {
					return sim.StepYield
				}
				p.Compute(spacing(k))
			}
			return sim.StepDone
		})
		procs[1] = eng.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			// A suspended drain is finished before the loop condition is
			// re-tested, as the coroutine's yield loop finishes it.
			for draining || len(order) < n {
				draining = true
				if !ams[1].StepDrain(&ps) {
					return sim.StepYield
				}
				draining = false
				after = append(after, len(order))
				p.Compute(150)
			}
			return sim.StepDone
		})
	}
	for i, p := range procs {
		ams[i] = am.New(net.Attach(p))
	}
	ams[0].Register(func(*ni.Packet) {})
	ams[1].Register(func(pkt *ni.Packet) {
		order = append(order, pkt.Args[0])
		procs[1].Compute(90) // long enough that later requests queue behind it
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run aborted (step=%v): %v", step, err)
	}
	return order, after, []*stats.Acct{procs[0].Acct, procs[1].Acct}
}

// TestStepDrainMatchesDrain checks that StepDrain behaves the same under
// both processor forms: a coroutine yielding until it completes and a step
// processor returning StepYield dispatch the same packets at the same
// drains, with equal per-processor accounting.
func TestStepDrainMatchesDrain(t *testing.T) {
	coOrder, coAfter, coAcct := drainRun(t, false)
	stOrder, stAfter, stAcct := drainRun(t, true)
	if !slices.Equal(coOrder, stOrder) {
		t.Errorf("arrival order: coroutine %v, step %v", coOrder, stOrder)
	}
	if !slices.Equal(coAfter, stAfter) {
		t.Errorf("arrivals after each drain: coroutine %v, step %v", coAfter, stAfter)
	}
	if len(coAfter) < 3 {
		t.Errorf("only %d drains: the spacing never made a drain stop short", len(coAfter))
	}
	for me := range coAcct {
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			if co, st := coAcct[me].Cycles(stats.PhaseDefault, c), stAcct[me].Cycles(stats.PhaseDefault, c); co != st {
				t.Errorf("node %d: %v cycles: coroutine %d, step %d", me, c, co, st)
			}
		}
		for c := stats.Count(0); c < stats.NumCounts; c++ {
			if co, st := coAcct[me].Counts(stats.PhaseDefault, c), stAcct[me].Counts(stats.PhaseDefault, c); co != st {
				t.Errorf("node %d: %v count: coroutine %d, step %d", me, c, co, st)
			}
		}
	}
}

func TestDispatchChargesLibraryCategories(t *testing.T) {
	var libComp int64
	eng := rig(t,
		func(p *sim.Proc, a *am.AM) {
			h := a.Register(func(*ni.Packet) {})
			a.Request(1, h, [4]uint64{}, 0, nil)
		},
		func(p *sim.Proc, a *am.AM) {
			a.Register(func(*ni.Packet) { p.Compute(37) })
			if err := a.PollUntil(func() bool {
				return p.Acct.Cycles(stats.PhaseDefault, stats.LibComp) > 0
			}); err != nil {
				t.Errorf("poll error: %v", err)
			}
			libComp = p.Acct.Cycles(stats.PhaseDefault, stats.LibComp)
		})
	eng.Run()
	// Handler compute lands in LibComp, not application computation.
	if libComp < 37 {
		t.Errorf("lib comp = %d, want at least the handler's 37", libComp)
	}
}

func TestUnknownHandlerPanics(t *testing.T) {
	// The dispatch panic is raised on the receiving processor's goroutine,
	// so recover there and record it.
	panicked := false
	eng := rig(t,
		func(p *sim.Proc, a *am.AM) {
			a.Register(func(*ni.Packet) {})
			a.Request(1, 3, [4]uint64{}, 0, nil) // node 1 has no handler 3
		},
		func(p *sim.Proc, a *am.AM) {
			a.Register(func(*ni.Packet) {})
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			_ = a.PollUntil(func() bool { return panicked })
		})
	eng.Run()
	if !panicked {
		t.Error("expected a dispatch panic for an unregistered handler")
	}
}
