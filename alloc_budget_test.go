//go:build !race

// Allocation-budget regression tests: hard gates on the simulator's hot
// paths, enforced by plain `go test ./...`. Each test measures
// steady-state heap allocations with testing.AllocsPerRun after one
// warm-up pass (which may fault blocks in, populate event pools, and grow
// staging slices to their steady capacity) and fails on any regression
// past the budget. The budgets are zero: the cache/TLB hit paths, the
// pooled packet-delivery and coherence-event paths, and the barrier
// release path allocate nothing per operation once warm.
//
// The file is excluded under the race detector (instrumentation changes
// allocation behavior); CI runs these gates in the plain test job.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/sim"
)

// TestAllocBudgetMemHitPath gates the memory-system fast path: a load or
// store that hits in both the TLB and the cache must not allocate — no map
// operations, no boxing, nothing.
func TestAllocBudgetMemHitPath(t *testing.T) {
	cfg := cost.Default(1)
	eng := sim.NewEngine(cfg.NetLatency)
	var loads, stores float64
	eng.AddProc(func(p *sim.Proc) {
		m := memsim.NewMem(p, &cfg, 1)
		space := memsim.NewAddrSpace(1, cfg.BlockBytes)
		a := space.AllocPrivate(0, 4096)
		m.Read(a) // fault the block and TLB page in
		loads = testing.AllocsPerRun(1000, func() { m.Read(a) })
		stores = testing.AllocsPerRun(1000, func() { m.Write(a) })
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if loads != 0 {
		t.Errorf("load hit path allocates %.1f/op, budget 0", loads)
	}
	if stores != 0 {
		t.Errorf("store hit path allocates %.1f/op, budget 0", stores)
	}
}

// TestAllocBudgetTLBSteadyState gates the TLB on its own, including the
// open-addressed residency table's probe, insert, and backward-shift
// delete: a steady stream of accesses over more pages than the TLB holds
// (constant FIFO refill traffic) must not allocate.
func TestAllocBudgetTLBSteadyState(t *testing.T) {
	tlb := memsim.NewTLB(64, 4096)
	for p := 0; p < 128; p++ { // fill beyond capacity: evictions from here on
		tlb.Access(uint64(p) << 12)
	}
	i := 128
	allocs := testing.AllocsPerRun(1000, func() {
		tlb.Access(uint64(i) << 12)    // miss: evict + insert
		tlb.Access(uint64(i) << 12)    // MRU hit
		tlb.Access(uint64(i-50) << 12) // resident probe or refill
		i++
	})
	if allocs != 0 {
		t.Errorf("TLB steady state allocates %.1f/op, budget 0", allocs)
	}
}

// TestAllocBudgetAMRoundTrip gates the message-passing machine's packet
// path end to end: composing and injecting an active message, the pooled
// delivery event's dispatch through the engine, the receive + handler
// dispatch on the far side, and the reply. Steady state is zero
// allocations per round trip.
func TestAllocBudgetAMRoundTrip(t *testing.T) {
	cfg := cost.Default(2)
	var allocs float64
	res := machine.RunMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
		replies := 0
		stop := false
		var hReq, hRep, hStop int
		hReq = n.AM.Register(func(pkt *ni.Packet) {
			n.AM.Request(pkt.Src, hRep, pkt.Args, 0, nil)
		})
		hRep = n.AM.Register(func(*ni.Packet) { replies++ })
		hStop = n.AM.Register(func(*ni.Packet) { stop = true })
		if n.ID == 0 {
			roundTrip := func() {
				want := replies + 1
				n.AM.Request(1, hReq, [4]uint64{1, 2, 3, 4}, 8, nil)
				n.AM.PollUntil(func() bool { return replies >= want })
			}
			roundTrip() // warm the delivery pools on both NIs
			allocs = testing.AllocsPerRun(100, roundTrip)
			n.AM.Request(1, hStop, [4]uint64{}, 0, nil)
		} else {
			n.AM.PollUntil(func() bool { return stop })
		}
		n.Barrier()
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if allocs != 0 {
		t.Errorf("AM round trip allocates %.1f/op, budget 0", allocs)
	}
}

// TestAllocBudgetCoherenceReadHit gates the shared-memory fast path: a
// shared read whose block is already resident must be served entirely by
// the inline cache lookup, never reaching the protocol.
func TestAllocBudgetCoherenceReadHit(t *testing.T) {
	cfg := cost.Default(2)
	var allocs float64
	res := machine.RunSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			v := n.RT.GMallocFOn(0, 8)
			v.Get(n.Mem, 0) // miss once: directory grant installs the block
			allocs = testing.AllocsPerRun(1000, func() { v.Get(n.Mem, 0) })
		}
		n.Barrier()
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if allocs != 0 {
		t.Errorf("coherence read hit allocates %.1f/op, budget 0", allocs)
	}
}

// TestAllocBudgetBarrierEpisode gates the engine's event machinery —
// staged scheduling, the pooled event heap, the pooled barrier-release
// action, and processor wake — via complete barrier episodes. Every node
// must enter the barrier the same number of times; AllocsPerRun calls its
// function runs+1 times (one warm-up plus runs measured), so the peer
// loops warm+1+runs episodes. A count mismatch deadlocks and the engine
// reports it loudly.
func TestAllocBudgetBarrierEpisode(t *testing.T) {
	const runs = 50
	cfg := cost.Default(2)
	var allocs float64
	res := machine.RunMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
		n.Barrier() // warm the release-event pool
		if n.ID == 0 {
			allocs = testing.AllocsPerRun(runs, func() { n.Barrier() })
		} else {
			for i := 0; i < runs+1; i++ {
				n.Barrier()
			}
		}
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if allocs != 0 {
		t.Errorf("barrier episode allocates %.1f/op, budget 0", allocs)
	}
}

// TestAllocBudgetStepAppMainLoop gates the step (continuation) dispatch
// path on a complete application: once EM3D-MP under step dispatch reaches its
// main loop at P=256, the whole simulator — step dispatch, the cmmd
// channel/poll machines, the NI packet path, batched accounting — must
// allocate nothing. Measured as the host malloc count across the middle
// ~40% of the run's quantum boundaries; the budget is exactly zero, so a
// single escaping closure or per-quantum slice growth in the step stack
// fails loudly.
func TestAllocBudgetStepAppMainLoop(t *testing.T) {
	par := em3d.DefaultParams()
	par.NodesPer, par.Iters = 8, 40

	cfg := cost.Default(256)
	cfg.Workers = 1
	base := em3d.RunMP(cfg, cmmd.LopSided, par)
	if base.Res.Err != nil {
		t.Fatalf("sizing run: %v", base.Res.Err)
	}
	start, end := base.Res.Elapsed/2, base.Res.Elapsed*9/10

	cfg = cost.Default(256)
	cfg.Workers = 1
	var m0, m1 runtime.MemStats
	var got0, got1 bool
	var quanta int64
	cfg.OnBuild = func(m any) {
		mm := m.(*machine.MPMachine)
		mm.Eng.AddQuantumHook(func(now sim.Time) {
			switch {
			case !got0 && now >= start:
				runtime.ReadMemStats(&m0)
				got0 = true
			case got0 && !got1 && now >= end:
				runtime.ReadMemStats(&m1)
				got1 = true
			case got0 && !got1:
				quanta++
			}
		})
	}
	out := em3d.RunMP(cfg, cmmd.LopSided, par)
	if out.Res.Err != nil {
		t.Fatalf("measured run: %v", out.Res.Err)
	}
	if !got0 || !got1 {
		t.Fatalf("measurement window never closed (start %d end %d)", start, end)
	}
	if quanta < 100 {
		t.Fatalf("window too short: %d quanta", quanta)
	}
	if d := m1.Mallocs - m0.Mallocs; d != 0 {
		t.Errorf("step-form main loop allocates: %d mallocs (%d bytes) over %d quanta, budget 0",
			d, m1.TotalAlloc-m0.TotalAlloc, quanta)
	}
}
