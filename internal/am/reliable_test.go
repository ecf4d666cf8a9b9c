package am_test

// Behavioral tests for the reliable-delivery transport: drop → timeout
// retransmit, duplicate filtering, reorder under jitter, re-ack after a lost
// acknowledgement, and the structured starvation abort when the retry budget
// runs out.

import (
	"errors"
	"testing"

	"repro/internal/am"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// relRig is a small machine (two nodes unless built otherwise) with the
// reliable transport attached and a caller-supplied fault plan.
type relRig struct {
	eng  *sim.Engine
	net  *ni.Network
	ams  []*am.AM
	rels []*am.Reliable
}

func newRelRig(t *testing.T, plan *faults.Plan, body0, body1 func(p *sim.Proc, r *relRig)) *relRig {
	t.Helper()
	rig := &relRig{}
	rig.build(2, plan, cost.FaultsConfig{Seed: 1}, func(eng *sim.Engine, i int) *sim.Proc {
		body := [2]func(*sim.Proc, *relRig){body0, body1}[i]
		return eng.AddProc(func(p *sim.Proc) {
			body(p, rig)
			rig.rels[i].Shutdown()
		})
	})
	return rig
}

// build wires the nodes; add registers node i's processor (either form).
func (rig *relRig) build(nodes int, plan *faults.Plan, fc cost.FaultsConfig, add func(eng *sim.Engine, i int) *sim.Proc) {
	cfg := cost.Default(nodes)
	fc = fc.WithDefaults(cfg.NetLatency)
	rig.eng = sim.NewEngine(cfg.NetLatency)
	rig.net = ni.NewNetwork(rig.eng, &cfg)
	rig.net.Faults = plan
	grp := am.NewGroup(rig.eng)
	procs := make([]*sim.Proc, nodes)
	for i := range procs {
		procs[i] = add(rig.eng, i)
	}
	for _, p := range procs {
		a := am.New(rig.net.Attach(p))
		rig.ams = append(rig.ams, a)
		rig.rels = append(rig.rels, am.NewReliable(a, nodes, fc, grp))
	}
}

// dropFirstWindow drops every data packet before cycle until, then delivers
// everything (acks included) cleanly.
func dropFirstWindow(until sim.Time) *faults.Plan {
	return faults.NewPlan(1, []faults.Epoch{
		{Start: 0, Rules: []faults.LinkRule{{Src: -1, Dst: -1, Rates: faults.Rates{Drop: 1}}}},
		{Start: until, Rules: nil},
	})
}

func TestDropRecoveredByRetransmission(t *testing.T) {
	delivered := 0
	rig := newRelRig(t, dropFirstWindow(500),
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			_ = h
			r.ams[0].Request(1, h, [4]uint64{42}, 0, nil)
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(pkt *ni.Packet) {
				if pkt.Args[0] == 42 {
					delivered++
				}
			})
			// Shutdown services the network until the group quiesces; no
			// explicit wait needed.
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if delivered != 1 {
		t.Errorf("message delivered %d times, want exactly 1", delivered)
	}
	retrans := rig.eng.Procs()[0].Acct.Counts(stats.PhaseDefault, stats.CntRetransmissions)
	if retrans == 0 {
		t.Error("expected at least one retransmission after the drop")
	}
	if rig.net.Dropped == 0 {
		t.Error("network should have recorded the drop")
	}
}

func TestNetworkDuplicateFiltered(t *testing.T) {
	// Every data packet is duplicated by the network; handlers must still
	// run exactly once per message.
	plan := faults.Uniform(1, faults.Rates{Dup: 1})
	var got []uint64
	const n = 10
	rig := newRelRig(t, plan,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			for i := 0; i < n; i++ {
				r.ams[0].Request(1, h, [4]uint64{uint64(i)}, 0, nil)
			}
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(pkt *ni.Packet) { got = append(got, pkt.Args[0]) })
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d: %v", len(got), n, got)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	dups := rig.eng.Procs()[1].Acct.Counts(stats.PhaseDefault, stats.CntDuplicates)
	if dups == 0 {
		t.Error("expected duplicate packets to be counted as filtered")
	}
	if rig.net.Injected+rig.net.Duplicated != rig.net.Delivered+rig.net.Dropped {
		t.Errorf("conservation violated: inj %d + dup %d != del %d + drop %d",
			rig.net.Injected, rig.net.Duplicated, rig.net.Delivered, rig.net.Dropped)
	}
}

func TestJitterReorderDeliveredInOrder(t *testing.T) {
	// Heavy jitter reorders arrivals; the sequence layer must still hand
	// packets to handlers in send order.
	plan := faults.Uniform(7, faults.Rates{Delay: 0.8, MaxDelay: 1500})
	var got []uint64
	const n = 40
	rig := newRelRig(t, plan,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			for i := 0; i < n; i++ {
				r.ams[0].Request(1, h, [4]uint64{uint64(i)}, 0, nil)
			}
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(pkt *ni.Packet) { got = append(got, pkt.Args[0]) })
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestCorruptPacketDiscardedAndRecovered(t *testing.T) {
	// Corrupt every packet before cycle 500 (data and acks alike); the
	// checksum discards them and timeouts recover.
	plan := faults.NewPlan(3, []faults.Epoch{
		{Start: 0, Rules: []faults.LinkRule{{Src: -1, Dst: -1, Rates: faults.Rates{Corrupt: 1}}}},
		{Start: 500, Rules: nil},
	})
	delivered := 0
	rig := newRelRig(t, plan,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			r.ams[0].Request(1, h, [4]uint64{7}, 0, nil)
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(*ni.Packet) { delivered++ })
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d times, want 1", delivered)
	}
	discards := rig.eng.Procs()[1].Acct.Counts(stats.PhaseDefault, stats.CntCorrupt)
	if discards == 0 {
		t.Error("expected corrupt packets to be counted as discarded")
	}
}

func TestLostAckTriggersReack(t *testing.T) {
	// Drop only node1->node0 traffic (the acks) early on: node 0's data
	// arrives, node 1 acks into the void, node 0 retransmits, node 1 filters
	// the duplicate and re-acks.
	plan := faults.NewPlan(5, []faults.Epoch{
		{Start: 0, Rules: []faults.LinkRule{
			{Src: 1, Dst: 0, Rates: faults.Rates{Drop: 1}},
			{Src: -1, Dst: -1, Rates: faults.Rates{}},
		}},
		{Start: 2500, Rules: nil},
	})
	delivered := 0
	rig := newRelRig(t, plan,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			r.ams[0].Request(1, h, [4]uint64{9}, 0, nil)
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(*ni.Packet) { delivered++ })
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d times, want exactly 1 (dedup must filter the retransmit)", delivered)
	}
	recv := rig.eng.Procs()[1].Acct
	if recv.Counts(stats.PhaseDefault, stats.CntDuplicates) == 0 {
		t.Error("receiver should have filtered the retransmitted duplicate")
	}
	if recv.Counts(stats.PhaseDefault, stats.CntAcks) < 2 {
		t.Error("receiver should have acked at least twice (original + re-ack)")
	}
}

func TestTotalLossStarvesWithStructuredError(t *testing.T) {
	plan := faults.Uniform(1, faults.Rates{Drop: 1})
	rig := newRelRig(t, plan,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			r.ams[0].Request(1, h, [4]uint64{1}, 0, nil)
			var ps am.PollStep
			for !r.rels[0].StepFlush(&ps) { // can never succeed; must abort, not hang
				p.Yield()
			}
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(*ni.Packet) {})
		})
	err := rig.eng.Run()
	var se *faults.StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("Run returned %v, want a StarvationError", err)
	}
	if se.Node != 0 || se.Peer != 1 {
		t.Errorf("starved node %d peer %d, want 0 -> 1", se.Node, se.Peer)
	}
	if se.OldestUnacked != 1 {
		t.Errorf("oldest unacked = %d, want 1", se.OldestUnacked)
	}
}

func TestWindowBackpressureBlocksSender(t *testing.T) {
	// With a lossless plan-free network but the transport attached, sending
	// far more packets than the window must still deliver everything in
	// order (the window refills as acks arrive).
	var got []uint64
	const n = 300 // Window defaults to 64
	rig := newRelRig(t, nil,
		func(p *sim.Proc, r *relRig) {
			h := r.ams[0].Register(func(*ni.Packet) {})
			for i := 0; i < n; i++ {
				r.ams[0].Request(1, h, [4]uint64{uint64(i)}, 0, nil)
			}
		},
		func(p *sim.Proc, r *relRig) {
			r.ams[1].Register(func(pkt *ni.Packet) { got = append(got, pkt.Args[0]) })
		})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
	// No faults: nothing should ever have been retransmitted.
	if r := rig.eng.Procs()[0].Acct.Counts(stats.PhaseDefault, stats.CntRetransmissions); r != 0 {
		t.Errorf("%d spurious retransmissions on a lossless network", r)
	}
}

func TestHandlerPacketSurvivesNestedPoll(t *testing.T) {
	// A run-to-completion handler that sends under a full window services
	// the network from inside its own dispatch. The nested poll must receive
	// into a frame of its own: with one shared dispatch buffer the ack it
	// pops overwrote the packet the outer handler was still reading.
	const n = 20
	seen, clobbered, replies := 0, 0, 0
	rig := &relRig{}
	program := func(me int, a *am.AM) {
		var hRep int
		hReq := a.Register(func(pkt *ni.Packet) {
			a.Request(pkt.Src, hRep, [4]uint64{}, 0, nil)
			a.Request(pkt.Src, hRep, [4]uint64{}, 0, nil) // window of 1: polls for the first's ack
			if pkt.Args[0] != uint64(1000+seen) {
				clobbered++
			}
			seen++
		})
		hRep = a.Register(func(*ni.Packet) { replies++ })
		if me == 0 {
			for i := 0; i < n; i++ {
				a.Request(1, hReq, [4]uint64{uint64(1000 + i)}, 0, nil)
			}
			if err := a.PollUntil(func() bool { return replies == 2*n }); err != nil {
				t.Errorf("poll: %v", err)
			}
		}
	}
	rig.build(2, nil, cost.FaultsConfig{Seed: 1, Window: 1}, func(eng *sim.Engine, i int) *sim.Proc {
		return eng.AddProc(func(*sim.Proc) {
			program(i, rig.ams[i])
			rig.rels[i].Shutdown()
		})
	})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if seen != n || replies != 2*n {
		t.Fatalf("handled %d requests and %d replies, want %d and %d", seen, replies, n, 2*n)
	}
	if clobbered != 0 {
		t.Errorf("%d of %d handlers found their packet overwritten by a nested poll", clobbered, n)
	}
}

// backpressure runs one program on every node — send n requests to each
// peer, round-robin, through a window of 2; poll until every peer's n have
// arrived; shut down — as coroutine bodies over the blocking calls or as
// step bodies over the step forms. It returns what each node received from
// each peer, and each node's accounting.
func backpressure(t *testing.T, step bool, nodes int, plan *faults.Plan) (got [][][]uint64, accts []*stats.Acct) {
	t.Helper()
	const n = 40
	got = make([][][]uint64, nodes)
	rig := &relRig{}
	rig.build(nodes, plan, cost.FaultsConfig{Seed: 1, Window: 2}, func(eng *sim.Engine, me int) *sim.Proc {
		got[me] = make([][]uint64, nodes)
		h := -1
		setup := func() *am.AM {
			a := rig.ams[me]
			if h < 0 {
				h = a.Register(func(pkt *ni.Packet) {
					got[me][pkt.Src] = append(got[me][pkt.Src], pkt.Args[0])
					// Long enough that acks queue up behind data and one poll
					// both reopens a window and finds another peer timed out.
					a.P.Compute(300)
				})
			}
			return a
		}
		// The k-th send goes to the k-th peer in rotation.
		total := n * (nodes - 1)
		dst := func(k int) int { return (me + 1 + k%(nodes-1)) % nodes }
		arg := func(k int) [4]uint64 { return [4]uint64{uint64(k / (nodes - 1))} }
		arrived := func() bool {
			for q, g := range got[me] {
				if q != me && len(g) < n {
					return false
				}
			}
			return true
		}
		if !step {
			return eng.AddProc(func(*sim.Proc) {
				a := setup()
				for k := 0; k < total; k++ {
					a.Request(dst(k), h, arg(k), 0, nil)
				}
				if err := a.PollUntil(arrived); err != nil {
					t.Errorf("poll: %v", err)
				}
				rig.rels[me].Shutdown()
			})
		}
		var (
			phase, k int
			rs       am.ReqStep
			ps       am.PollStep
			sd       am.ShutdownStep
		)
		return eng.AddStepProc(func(*sim.Proc) sim.StepStatus {
			a := setup()
			for {
				switch phase {
				case 0:
					if k == total {
						phase = 1
					} else if a.StepRequest(&rs, dst(k), h, arg(k), 0, nil) {
						k++
					} else {
						return sim.StepYield
					}
				case 1:
					done, err := a.StepPollUntil(&ps, arrived)
					if !done {
						return sim.StepYield
					}
					if err != nil {
						t.Errorf("poll: %v", err)
					}
					phase = 2
				case 2:
					if !rig.rels[me].StepShutdown(&sd) {
						return sim.StepYield
					}
					return sim.StepDone
				}
			}
		})
	})
	if err := rig.eng.Run(); err != nil {
		t.Fatalf("run aborted (step=%v): %v", step, err)
	}
	for _, p := range rig.eng.Procs() {
		accts = append(accts, p.Acct)
	}
	return got, accts
}

func TestStepWindowBackpressureMatchesCoroutine(t *testing.T) {
	// Traffic every way through a small window: most sends service the
	// network first. On the lossy three-node machine the service poll that
	// takes the ack reopening one peer's window goes on to retransmit to
	// another peer, and can be suspended in that injection; a re-entered
	// send that re-tested the window before finishing that poll would
	// abandon it. Both forms run the one body, so they would drift together:
	// the lossy case is also pinned to the values the hand-written blocking
	// transport produced before the transport had a step form.
	type pin struct{ clock, acks, retrans int64 }
	for _, tc := range []struct {
		name  string
		nodes int
		plan  func() *faults.Plan // a plan is stateful: one per run
		pins  []pin
	}{
		{"lossless", 2, func() *faults.Plan { return nil }, nil},
		{"lossy", 3, func() *faults.Plan { return faults.Uniform(3, faults.Rates{Drop: 0.15}) },
			[]pin{{101153, 88, 44}, {100876, 91, 26}, {100976, 103, 21}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coGot, coAcct := backpressure(t, false, tc.nodes, tc.plan())
			stGot, stAcct := backpressure(t, true, tc.nodes, tc.plan())
			for me := range stGot {
				for q, g := range stGot[me] {
					if len(g) != len(coGot[me][q]) {
						t.Fatalf("node %d from %d: step delivered %d, coroutine %d", me, q, len(g), len(coGot[me][q]))
					}
					for i, v := range g {
						if v != uint64(i) {
							t.Fatalf("node %d from %d: order violated at %d: %v", me, q, i, g[:i+1])
						}
					}
				}
				for c := stats.Category(0); c < stats.NumCategories; c++ {
					if s, co := stAcct[me].Cycles(stats.PhaseDefault, c), coAcct[me].Cycles(stats.PhaseDefault, c); s != co {
						t.Errorf("node %d: %v cycles: step %d, coroutine %d", me, c, s, co)
					}
				}
				for c := stats.Count(0); c < stats.NumCounts; c++ {
					if s, co := stAcct[me].Counts(stats.PhaseDefault, c), coAcct[me].Counts(stats.PhaseDefault, c); s != co {
						t.Errorf("node %d: %v count: step %d, coroutine %d", me, c, s, co)
					}
				}
				got := pin{stAcct[me].TotalCycles(stats.PhaseDefault),
					stAcct[me].Counts(stats.PhaseDefault, stats.CntAcks),
					stAcct[me].Counts(stats.PhaseDefault, stats.CntRetransmissions)}
				if tc.pins == nil {
					if got.retrans != 0 {
						t.Errorf("node %d: %d spurious retransmissions on a lossless network", me, got.retrans)
					}
				} else if got != tc.pins[me] {
					t.Errorf("node %d: clock/acks/retransmissions %+v, want %+v", me, got, tc.pins[me])
				}
			}
		})
	}
}
