package ni

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// spinQuantum burns the rest of the current quantum as library computation
// and yields: nothing observable can change until the next quantum, so a
// poll loop charges the whole window at once.
func spinQuantum(p *sim.Proc) {
	if p.StepInteract() {
		p.ChargeStall(stats.LibComp, p.Engine().QuantumEnd()-p.Clock())
	}
	p.Yield()
}

// status reads the status register, giving up the processor until the
// read completes.
func status(ni *NI) bool {
	for {
		if avail, done := ni.StepStatus(); done {
			return avail
		}
		ni.P.Yield()
	}
}

func TestSendDeliversAfterLatency(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	var arrive sim.Time
	var sendDone sim.Time
	var recvTag int
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		nis[0].Send(&Packet{Dst: 1, Tag: 7, DataBytes: 8})
		sendDone = p.Clock()
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {
		nis[1].WaitPacket(stats.LibComp)
		arrive = p.Clock()
		if !status(nis[1]) {
			t.Error("status should see the packet")
		}
		pkt := nis[1].Recv()
		recvTag = pkt.Tag
	})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
	if recvTag != 7 {
		t.Errorf("tag = %d", recvTag)
	}
	// Send costs 5+15 cycles; arrival is 100 later.
	if sendDone != 20 {
		t.Errorf("send completed at %d, want 20", sendDone)
	}
	if arrive != 120 {
		t.Errorf("packet observed at %d, want 120", arrive)
	}
	if net.Injected != 1 || net.Delivered != 1 {
		t.Errorf("conservation: %d/%d", net.Injected, net.Delivered)
	}
}

func TestByteAccountingSplitsHeaderAsControl(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		nis[0].Send(&Packet{Dst: 1, DataBytes: 16}) // full payload is data
		nis[0].Send(&Packet{Dst: 1, DataBytes: 0})  // pure control
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nis[1].WaitPacket(stats.LibComp)
			nis[1].Recv()
		}
	})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
	a := procs[0].Acct
	if d := a.Counts(stats.PhaseDefault, stats.CntBytesData); d != 16 {
		t.Errorf("data bytes = %d, want 16", d)
	}
	// Headers: 4 (with data) + 20 (pure control).
	if c := a.Counts(stats.PhaseDefault, stats.CntBytesControl); c != 24 {
		t.Errorf("control bytes = %d, want 24", c)
	}
	if m := a.Counts(stats.PhaseDefault, stats.CntMessages); m != 2 {
		t.Errorf("messages = %d, want 2", m)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	const n = 50
	var got []int
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			nis[0].Send(&Packet{Dst: 1, Tag: i})
		}
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			nis[1].WaitPacket(stats.LibComp)
			got = append(got, nis[1].Recv().Tag)
		}
	})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestOversizedPayloadPanics(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	procs := []*sim.Proc{
		eng.AddProc(func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for oversized payload")
				}
			}()
			nis := net.nis
			nis[0].Send(&Packet{Dst: 1, DataBytes: 17})
		}),
		eng.AddProc(func(p *sim.Proc) {}),
	}
	net.Attach(procs[0])
	net.Attach(procs[1])
	eng.Run()
}

func TestTryRecvReturnsTypedError(t *testing.T) {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		if _, err := nis[0].TryRecv(); !errors.Is(err, ErrNoPacket) {
			t.Errorf("empty-queue TryRecv = %v, want ErrNoPacket", err)
		}
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
}

func TestFaultConservationInvariant(t *testing.T) {
	// Fire a few thousand raw packets through a lossy, duplicating network
	// and check the generalized packet-conservation identity:
	// Injected + Duplicated == Delivered + Dropped.
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	net.Faults = faults.Uniform(99, faults.Rates{Drop: 0.2, Dup: 0.15, Delay: 0.3, MaxDelay: 700})
	const n = 3000
	received := 0
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			nis[0].Send(&Packet{Dst: 1, Tag: i % 7})
		}
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {
		// Drain until the sender is done and nothing more can arrive.
		for {
			if status(nis[1]) {
				nis[1].Recv()
				received++
				continue
			}
			if done, _ := procs[0].Blocked(); !done && p.Clock() > int64(n)*30+5000 {
				return
			}
			spinQuantum(p)
			if p.Clock() > int64(n)*40+20000 {
				return
			}
		}
	})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
	if net.Injected != n {
		t.Errorf("injected %d, want %d", net.Injected, n)
	}
	if net.Dropped == 0 || net.Duplicated == 0 {
		t.Errorf("fault plan inert: dropped %d duplicated %d", net.Dropped, net.Duplicated)
	}
	if net.Injected+net.Duplicated != net.Delivered+net.Dropped {
		t.Errorf("conservation violated: inj %d + dup %d != del %d + drop %d",
			net.Injected, net.Duplicated, net.Delivered, net.Dropped)
	}
	if int64(received) != net.Delivered {
		t.Errorf("receiver popped %d packets, network delivered %d", received, net.Delivered)
	}
}

// poolLen counts the deliveries in the network's free list.
func poolLen(net *Network) int {
	n := 0
	for d := net.free; d != nil; d = d.next {
		n++
	}
	return n
}

func TestInputQueueCompactionUnderJitteredBacklog(t *testing.T) {
	// A large backlog accumulates under delayed, reordered arrivals while
	// the receiver sleeps, then drains while stragglers keep arriving. The
	// FIFO must hand packets out in arrival order, each exactly once, and
	// afterwards every delivery event must be back in the pool.
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	net.Faults = faults.Uniform(4, faults.Rates{Delay: 0.5, MaxDelay: 40000})
	const n = 4000
	var got []Packet
	peak := 0 // most deliveries ever outstanding: in flight or queued
	procs := make([]*sim.Proc, 2)
	nis := make([]*NI, 2)
	procs[0] = eng.AddProc(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			nis[0].Send(&Packet{Dst: 1, Tag: i})
			peak = max(peak, int(net.Injected)-len(got))
		}
	})
	procs[1] = eng.AddProc(func(p *sim.Proc) {
		p.Interact()
		for nis[1].Pending() < n-n/8 {
			spinQuantum(p)
		}
		for len(got) < n {
			nis[1].WaitPacket(stats.LibComp)
			got = append(got, nis[1].Recv())
		}
	})
	nis[0] = net.Attach(procs[0])
	nis[1] = net.Attach(procs[1])
	eng.Run()
	if len(got) != n {
		t.Fatalf("received %d packets, want %d", len(got), n)
	}
	// Arrival order is event-time order, not send order, under jitter; the
	// queue must deliver every tag exactly once with no corruption.
	seen := make([]bool, n)
	reordered := false
	for i, pkt := range got {
		if pkt.Tag < 0 || pkt.Tag >= n || seen[pkt.Tag] {
			t.Fatalf("corrupt or duplicated tag %d at pop %d", pkt.Tag, i)
		}
		seen[pkt.Tag] = true
		if pkt.Tag != i {
			reordered = true
		}
		if i > 0 && pkt.Arrive < got[i-1].Arrive {
			t.Fatalf("pop %d arrived at %d, before pop %d at %d", i, pkt.Arrive, i-1, got[i-1].Arrive)
		}
	}
	if !reordered {
		t.Error("jitter plan produced no reordering; test is not exercising the path")
	}
	if peak < n-n/8 {
		t.Errorf("peak backlog %d, want at least %d", peak, n-n/8)
	}
	// The pool refills one slab at a time, only when empty, so the peak
	// backlog fixes the number of slabs; none may be lost or duplicated.
	slabs := (peak + delSlab - 1) / delSlab
	if pooled, want := poolLen(net), slabs*delSlab; pooled != want {
		t.Errorf("free list holds %d deliveries, want %d slabs x %d = %d", pooled, slabs, delSlab, want)
	}
	if net.Injected != n || net.Delivered != int64(n) {
		t.Errorf("conservation: injected %d delivered %d, want %d", net.Injected, net.Delivered, n)
	}
}
