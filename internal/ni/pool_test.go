//go:build !race

package ni

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

// nop is an event body that does nothing; the burst test uses it to grow the
// engine's own event pool before measuring.
type nop struct{}

func (nop) RunEvent(sim.Time) {}

// TestDeliveryPoolAllocations pins the delivery pool's allocation pattern: a
// warmed-up send -> deliver -> receive cycle allocates nothing, and a burst
// of packets in flight allocates one slab per delSlab deliveries, not one
// object per packet. Excluded under the race detector, which changes
// allocation behavior.
func TestDeliveryPoolAllocations(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		cfg := cost.Default(1)
		eng := sim.NewEngine(cfg.NetLatency)
		net := NewNetwork(eng, &cfg)
		var allocs float64
		var ni *NI
		p := eng.AddProc(func(p *sim.Proc) {
			allocs = testing.AllocsPerRun(100, func() {
				ni.Send(&Packet{Dst: 0, Tag: 1, DataBytes: 8})
				ni.WaitPacket(stats.LibComp)
				ni.Recv()
			})
		})
		ni = net.Attach(p)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("send -> deliver -> receive allocates %.1f/op, budget 0", allocs)
		}
		if got := poolLen(net); got != delSlab {
			t.Errorf("free list holds %d deliveries, want one slab of %d", got, delSlab)
		}
	})

	// runtime.MemStats is process-wide, so a stray runtime allocation can
	// land in the window; the burst is measured up to three times, each on a
	// fresh network, and the best counts.
	t.Run("burst", func(t *testing.T) {
		const slabs = 10
		var counts []uint64
		for attempt := 0; attempt < 3; attempt++ {
			got := burstMallocs(t, slabs*delSlab)
			counts = append(counts, got)
			if got == slabs {
				return
			}
		}
		t.Errorf("a burst of %d packets made %v mallocs, want exactly %d slabs", slabs*delSlab, counts, slabs)
	})
}

// burstMallocs sends n packets from node 0 to node 1 before node 1 receives
// any, and returns the host mallocs of the sends. The engine's event pool is
// grown to n first, so what is left is the network's own delivery pool.
func burstMallocs(t *testing.T, n int) uint64 {
	cfg := cost.Default(2)
	eng := sim.NewEngine(cfg.NetLatency)
	net := NewNetwork(eng, &cfg)
	var m0, m1 runtime.MemStats
	received := 0
	nis := make([]*NI, 2)
	p0 := eng.AddProc(func(p *sim.Proc) {
		p.Interact()
		until := p.Clock() + 1000
		for i := 0; i < n; i++ {
			p.ScheduleAction(until, nop{})
		}
		for p.Clock() <= until {
			spinQuantum(p)
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			nis[0].Send(&Packet{Dst: 1, Tag: i})
		}
		runtime.ReadMemStats(&m1)
	})
	p1 := eng.AddProc(func(p *sim.Proc) {
		p.Interact()
		for nis[1].Pending() < n {
			spinQuantum(p)
		}
		for ; received < n; received++ {
			nis[1].Recv()
		}
	})
	nis[0] = net.Attach(p0)
	nis[1] = net.Attach(p1)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if received != n {
		t.Fatalf("received %d packets, want %d", received, n)
	}
	if got, want := poolLen(net), (n+delSlab-1)/delSlab*delSlab; got != want {
		t.Errorf("free list holds %d deliveries after the burst, want %d", got, want)
	}
	return m1.Mallocs - m0.Mallocs
}
