//go:build !race

// Allocation-budget regression tests: hard gates on the simulator's host
// allocations, enforced by plain `go test ./...`. The hot-path tests measure
// steady-state heap allocations with testing.AllocsPerRun after one
// warm-up pass (which may fault blocks in, populate event pools, and grow
// staging slices to their steady capacity) and fail on any regression
// past the budget. Those budgets are zero: the cache/TLB hit paths, the
// pooled packet-delivery and coherence-event paths, and the barrier
// release path allocate nothing per operation once warm. The whole-run
// tests (TestAllocBudgetTables, TestHostAllocsLinearInP) bound the mallocs
// of complete runs instead.
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
	"repro/internal/runner"
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
			roundTrip() // warm the network's delivery pool
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

// TestAllocBudgetHotHomeContention gates the directory under the burst the
// paper's Gauss-SM queues on: 32 requesters read one block that a writer
// then takes. Each round is a recall with the other readers queued behind
// it, then an invalidation round of 31 sharers. Once two rounds have sized
// the waiter queue, the transaction free list and the event pools, a round
// allocates nothing. Every node runs warm+1+runs rounds, as in
// TestAllocBudgetBarrierEpisode.
func TestAllocBudgetHotHomeContention(t *testing.T) {
	const procs, warm, runs = 32, 2, 50
	cfg := cost.Default(procs)
	var allocs float64
	var v memsim.IVec
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		round := func() {
			v.Get(n.Mem, 0)
			n.Barrier()
			if n.ID == 1 {
				v.Set(n.Mem, 0, v.V[0]+1)
			}
			n.Barrier()
		}
		for i := 0; i < warm; i++ {
			round()
		}
		if n.ID == 0 {
			allocs = testing.AllocsPerRun(runs, round)
		} else {
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
	})
	v = m.RT.GMallocIOn(0, 8) // host-side, before any body runs
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if want := int64(warm+1+runs) * (procs - 1); m.Pr.Invals < want {
		t.Errorf("%d invalidations, want at least %d: the rounds did not contend", m.Pr.Invals, want)
	}
	if allocs != 0 {
		t.Errorf("hot-home contention round allocates %.1f/op, budget 0", allocs)
	}
}

// TestAllocBudgetBarrierEpisode gates the engine's event machinery —
// Stager scheduling, the pooled event heap, the pooled barrier-release
// action, and processor wake — via complete barrier episodes, plain and
// combining (a hardware-combining reduction, whose release also folds the
// deposits and wakes with the result). Every node must enter the barrier
// the same number of times; AllocsPerRun calls its function runs+1 times
// (one warm-up plus runs measured), so the peer loops warm+1+runs
// episodes. A count mismatch deadlocks and the engine reports it loudly.
func TestAllocBudgetBarrierEpisode(t *testing.T) {
	const runs = 50
	for _, tc := range []struct {
		name    string
		hw      bool
		episode func(n *machine.MPNode)
	}{
		{"plain", false, func(n *machine.MPNode) { n.Barrier() }},
		{"combining", true, func(n *machine.MPNode) {
			n.Comm.Reduce(0, float64(n.ID), int64(n.ID), cmmd.OpMaxAbs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cost.Default(2)
			cfg.HWCombining = tc.hw
			var allocs float64
			res := machine.RunMP(cfg, cmmd.Binary, func(n *machine.MPNode) {
				tc.episode(n) // warm the release-event pool
				if n.ID == 0 {
					allocs = testing.AllocsPerRun(runs, func() { tc.episode(n) })
				} else {
					for i := 0; i < runs+1; i++ {
						tc.episode(n)
					}
				}
			})
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			if allocs != 0 {
				t.Errorf("%s barrier episode allocates %.1f/op, budget 0", tc.name, allocs)
			}
		})
	}
}

// TestAllocBudgetStepAppMainLoop gates the step (continuation) dispatch
// path on a complete application: once EM3D-MP under step dispatch reaches its
// main loop at P=256, the whole simulator — step dispatch, the cmmd
// channel/poll machines, the NI packet path, cost accounting — must
// allocate nothing. Measured as the host malloc count across the middle
// ~40% of the run's quantum boundaries; the budget is exactly zero, so a
// single escaping closure or per-quantum slice growth in the step stack
// fails loudly.
//
// runtime.MemStats is process-wide: with `go test ./...` loading a small host
// the runtime itself (a timer, a GC worker, the test framework's output
// goroutine) has been seen to allocate a handful of objects inside a window
// of two thousand quanta. So the window is measured up to three times, each a
// whole fresh run, and the best counts: an allocation the simulator makes is
// deterministic and shows in all three, a stray runtime allocation does not.
// The budget itself stays at exactly zero.
func TestAllocBudgetStepAppMainLoop(t *testing.T) {
	par := em3d.DefaultParams()
	par.NodesPer, par.Iters = 8, 40

	cfg := cost.Default(256)
	base := em3d.RunMP(cfg, cmmd.LopSided, par)
	if base.Res.Err != nil {
		t.Fatalf("sizing run: %v", base.Res.Err)
	}
	start, end := base.Res.Elapsed/2, base.Res.Elapsed*9/10

	var mallocs, bytes []uint64
	var quanta int64
	for attempt := 0; attempt < 3; attempt++ {
		var d, db uint64
		d, db, quanta = mainLoopMallocs(t, par, start, end)
		mallocs, bytes = append(mallocs, d), append(bytes, db)
		if d == 0 {
			return
		}
	}
	t.Errorf("step-form main loop allocates in every measured window: %v mallocs (%v bytes) over %d quanta, budget 0",
		mallocs, bytes, quanta)
}

// mainLoopMallocs runs EM3D-MP at P=256 and returns the host mallocs and
// bytes allocated between the first quantum boundaries at or after simulated
// times start and end, and the number of quanta between them.
func mainLoopMallocs(t *testing.T, par em3d.Params, start, end sim.Time) (mallocs, bytes uint64, quanta int64) {
	cfg := cost.Default(256)
	var m0, m1 runtime.MemStats
	var got0, got1 bool
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
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, quanta
}

// mallocs returns the host mallocs one call of run makes. runtime.MemStats
// is process-wide: no test here runs in parallel, and each budget's headroom
// covers the handful the runtime makes.
func mallocs(t *testing.T, run func() error) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs
}

// runSpec runs spec serially, as every tool and the benchmark do, and
// reports a harness error or an aborted run.
func runSpec(spec runner.Spec) func() error {
	return func() error {
		out, err := runner.Run(spec, runner.Options{})
		if err == nil {
			err = out.Res.Err
		}
		return err
	}
}

// engineStartup builds an engine of procs processors, coroutines or step
// processors, that each compute one quantum and finish, and returns its Run.
func engineStartup(procs int, coroutine bool) func() error {
	e := sim.NewEngine(100)
	for i := 0; i < procs; i++ {
		if coroutine {
			e.AddProc(func(p *sim.Proc) {
				p.Compute(100)
				p.Interact()
			})
			continue
		}
		done := false
		e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if done {
				return sim.StepDone
			}
			done = true
			p.Compute(100)
			return sim.StepYield
		})
	}
	return e.Run
}

// TestAllocBudgetTables bounds the host mallocs of whole runs. Twelve rows
// are the distinct paper-table configurations: runner.TableSpec for every
// app and machine, plus Table 16's 1 MB cache and Table 17's local
// allocation. Each runs at its table problem size with Iters capped at 2:
// a run's mallocs are its working-set setup, which the cap leaves at the
// full-scale count, while one allocation per event, packet or directory
// request still multiplies past the budget. The two engine rows measure
// start-up at P=1024, not switching: each processor computes one quantum
// and finishes, so the coroutine row is mostly iter.Pull's objects per
// coroutine. Each budget is about 1.25x measured.
func TestAllocBudgetTables(t *testing.T) {
	table := func(app, mach string, vary func(*runner.Spec)) func() error {
		spec := runner.TableSpec(app, mach)
		spec.Iters = 2
		if vary != nil {
			vary(&spec)
		}
		return runSpec(spec)
	}
	rows := []struct {
		name   string
		run    func() error
		budget uint64
	}{
		{"mse-mp", table("mse", "mp", nil), 6_100},
		{"mse-sm", table("mse", "sm", nil), 2_750},
		{"gauss-mp", table("gauss", "mp", nil), 3_900},
		{"gauss-sm", table("gauss", "sm", nil), 10_000},
		{"em3d-mp", table("em3d", "mp", nil), 7_200},
		{"em3d-sm", table("em3d", "sm", nil), 59_100},
		{"em3d-sm-1mb", table("em3d", "sm", func(s *runner.Spec) { s.CacheBytes = 1 << 20 }), 59_100},
		{"em3d-sm-local", table("em3d", "sm", func(s *runner.Spec) { s.Policy = "local" }), 59_100},
		{"lcp-mp", table("lcp", "mp", nil), 14_100},
		{"lcp-sm", table("lcp", "sm", nil), 13_700},
		{"alcp-mp", table("alcp", "mp", nil), 15_200},
		{"alcp-sm", table("alcp", "sm", nil), 13_200},
		{"engine-coroutine-1024", engineStartup(1024, true), 18_000},
		{"engine-step-1024", engineStartup(1024, false), 1_300},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := mallocs(t, r.run)
			t.Logf("%d mallocs, budget %d", got, r.budget)
			if got > r.budget {
				t.Error("over budget")
			}
		})
	}
}

// scalingSpec builds the per-processor-scaled run for one scaling pair: the
// two applications, on either machine, whose total work is linear in the
// machine size (em3d's graph is NodesPer per proc; lcp gets
// two matrix rows per proc), so growing P grows the machine, not the
// per-proc work. mse and gauss are excluded deliberately — their total work
// is quadratic/cubic in the problem size, so a per-proc-scaled run at
// P=1024 would measure the application, not the simulator.
func scalingSpec(app, mach string, procs int) runner.Spec {
	switch app {
	case "em3d":
		// NodesPer must be large enough that every node has at least one
		// remote in-edge (an empty receive channel is an app-level error).
		return runner.Spec{App: app, Machine: mach, Procs: procs, Size: 8, Iters: 2}
	case "lcp":
		return runner.Spec{App: app, Machine: mach, Procs: procs, Size: 2 * procs, Iters: 2}
	}
	panic("unknown scaling app " + app)
}

// scalingPairs are the app/machine pairs scalingSpec can size, each with its
// ceiling on mallocs per simulated node at P=1024, about 1.25x measured.
var scalingPairs = []struct {
	app, mach string
	perNode   float64
}{
	{"em3d", "mp", 170},
	{"em3d", "sm", 110},
	{"lcp", "mp", 127},
	{"lcp", "sm", 84},
}

// TestHostAllocsLinearInP holds whole runs to host state linear in the
// machine size: for every scaling pair, the mallocs of one complete run
// divided by P may grow at most 1.5x from P=256 to P=1024 and stay under the
// pair's ceiling. A structure that is O(P) per node — every node's own
// copy of the collective tree, a lock with an object per node when there is a
// lock per node — quadruples that ratio and used to reach 2,300-3,200 per
// node, so the next one is a test failure, not a profile finding. lcp-sm's
// growth from 69 to 162 per node was the coherence directory's per-block
// entries, sharer sets and waiter queues; with entries in pooled chunks and
// transactions recycled it is 64 -> 67, and em3d-sm fell from 264 to 87.
func TestHostAllocsLinearInP(t *testing.T) {
	perNode := func(app, mach string, procs int) float64 {
		return float64(mallocs(t, runSpec(scalingSpec(app, mach, procs)))) / float64(procs)
	}
	for _, pair := range scalingPairs {
		small, large := perNode(pair.app, pair.mach, 256), perNode(pair.app, pair.mach, 1024)
		t.Logf("%s-%s: %.0f mallocs per node at P=256, %.0f at P=1024", pair.app, pair.mach, small, large)
		if large > 1.5*small {
			t.Errorf("%s-%s: mallocs per node grow %.0f -> %.0f from P=256 to P=1024 (%.1fx, bound 1.5x): some host structure is quadratic in P",
				pair.app, pair.mach, small, large, large/small)
		}
		if large > pair.perNode {
			t.Errorf("%s-%s: %.0f mallocs per node at P=1024, bound %.0f", pair.app, pair.mach, large, pair.perNode)
		}
	}
}
