package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// The probes time fixed operation counts against each layer's public API,
// in the manner of the repository's BenchmarkMicro* functions. They answer
// "which layer moved?" when an end-to-end number does; they are not
// workloads and carry no bounds. Every host-time probe reports the median of
// probeReps repetitions.

const probeReps = 3

type probeCtx struct {
	e   *env
	ms  *metricSet
	dir string
	// scale shrinks operation counts under -smoke.
	scale float64
}

func (pc *probeCtx) ops(n int) int {
	if k := int(float64(n) * pc.scale); k > 1 {
		return k
	}
	return 1
}

// med sets name to the median of probeReps calls of f.
func (pc *probeCtx) med(name string, f func() float64) {
	var v []float64
	for i := 0; i < probeReps; i++ {
		v = append(v, f())
	}
	pc.ms.set(name, median(v))
}

func nsPer(ops int, d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// ok records a probe's simulated run as a checked operation.
func (pc *probeCtx) ok(what string, err error) {
	pc.e.chk.check(err == nil, "probe %s: %v", what, err)
}

func runProbes(e *env, ms *metricSet, dir string) {
	pc := &probeCtx{e: e, ms: ms, dir: dir, scale: 1}
	if e.smoke {
		pc.scale = 0.02
	}
	if !e.chk.check(os.MkdirAll(dir, 0o755) == nil, "probe dir %s", dir) {
		return
	}
	for _, p := range []func(*probeCtx){
		probeSim, probeMemsim, probeCoherence, probeMP, probeParmacs,
		probeStats, probeMachine, probeRunner, probeSnapshot, probeServe,
	} {
		p(pc)
	}
}

// --- sim: dispatch, event queue, barrier, worker pool ---

func probeSim(pc *probeCtx) {
	step := func(procs, rounds int) float64 {
		e := sim.NewEngine(100)
		e.Workers = 1
		for i := 0; i < procs; i++ {
			k := 0
			e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
				if k >= rounds {
					return sim.StepDone
				}
				k++
				p.Compute(100)
				return sim.StepYield
			})
		}
		t0 := time.Now()
		pc.ok("step switch", e.Run())
		return nsPer(procs*rounds, time.Since(t0))
	}
	coroutine := func(procs, rounds int) float64 {
		e := sim.NewEngine(100)
		e.Workers = 1
		for i := 0; i < procs; i++ {
			e.AddProc(func(p *sim.Proc) {
				for k := 0; k < rounds; k++ {
					p.Compute(100)
					p.Interact()
				}
			})
		}
		t0 := time.Now()
		pc.ok("coroutine switch", e.Run())
		return nsPer(procs*rounds, time.Since(t0))
	}
	pc.med("sim.switch_step_p1024_ns", func() float64 { return step(1024, pc.ops(400)) })
	pc.med("sim.switch_coroutine_p32_ns", func() float64 { return coroutine(32, pc.ops(2000)) })
	pc.med("sim.switch_coroutine_p1024_ns", func() float64 { return coroutine(1024, pc.ops(100)) })

	// One step processor raising a burst of events per quantum: "near" lands
	// in the calendar ring (the window is 512 cycles at quantum 100), "far"
	// beyond it, in the fallback heap.
	events := func(ahead sim.Time) float64 {
		const burst = 64
		rounds := pc.ops(2000)
		nop := func() {}
		e := sim.NewEngine(100)
		e.Workers = 1
		k := 0
		e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if k >= rounds {
				return sim.StepDone
			}
			k++
			for j := 0; j < burst; j++ {
				p.Schedule(p.Clock()+ahead+sim.Time(j), nop)
			}
			p.Compute(100)
			return sim.StepYield
		})
		t0 := time.Now()
		pc.ok("event burst", e.Run())
		return nsPer(rounds*burst, time.Since(t0))
	}
	pc.med("sim.event_near_ns", func() float64 { return events(150) })
	pc.med("sim.event_far_ns", func() float64 { return events(2000) })

	pc.med("sim.barrier_p32_ns", func() float64 {
		const procs = 32
		rounds := pc.ops(500)
		e := sim.NewEngine(100)
		e.Workers = 1
		bar := sim.NewBarrier(e, procs, 100)
		for i := 0; i < procs; i++ {
			e.AddProc(func(p *sim.Proc) {
				for k := 0; k < rounds; k++ {
					p.Compute(50)
					bar.Wait(p, stats.BarrierWait)
				}
			})
		}
		t0 := time.Now()
		pc.ok("barrier", e.Run())
		return nsPer(procs*rounds, time.Since(t0))
	})

	// Worker pool against serial dispatch on the same run: above 1 the pool
	// costs more than it buys on this host.
	pc.med("sim.pool_w2_ratio", func() float64 {
		spec := runner.Spec{App: "em3d", Machine: "mp", Procs: 32, Size: 100, Iters: 10}
		if pc.e.smoke {
			spec = smokeSpec(spec)
		}
		return timeRun(pc, spec, runner.Options{Workers: 2}) / timeRun(pc, spec, runOpts)
	})
}

// timeRun runs spec and returns its wall time in seconds.
func timeRun(pc *probeCtx, spec runner.Spec, opts runner.Options) float64 {
	t0 := time.Now()
	out, err := runner.Run(spec, opts)
	d := time.Since(t0).Seconds()
	if err == nil && out.Res.Err != nil {
		err = out.Res.Err
	}
	pc.ok(fmt.Sprintf("run %s/%s", spec.App, spec.Machine), err)
	return d
}

// --- memsim: TLB, cache, private-path loads ---

var probeSink uint64

func probeMemsim(pc *probeCtx) {
	pc.med("memsim.tlb_hit_ns", func() float64 {
		n := pc.ops(2_000_000)
		t := memsim.NewTLB(64, 4096)
		for p := 0; p < 64; p++ {
			t.Access(uint64(p) << 12)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			// Eight resident pages in rotation: half the accesses miss the
			// MRU filter and take the probe path; none faults.
			if t.Access(uint64(i&7) << 12) {
				probeSink++
			}
		}
		return nsPer(n, time.Since(t0))
	})
	pc.med("memsim.cache_lookup_ns", func() float64 {
		n := pc.ops(2_000_000)
		c := memsim.NewCache(256<<10, 4, 32, sim.NewRNG(1))
		for b := uint64(0); b < 1024; b++ {
			c.Insert(b, memsim.Modified)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			probeSink += uint64(c.Lookup(uint64(i) & 1023))
		}
		return nsPer(n, time.Since(t0))
	})

	// Loads through Mem on one processor of a bare engine: a hit touches the
	// TLB and the cache and charges nothing; a private miss also charges
	// the stall, so the processor yields every few misses.
	onProc := func(body func(m *memsim.Mem, space *memsim.AddrSpace) float64) float64 {
		cfg := cost.Default(1)
		eng := sim.NewEngine(cfg.NetLatency)
		eng.Workers = 1
		var v float64
		eng.AddProc(func(p *sim.Proc) {
			v = body(memsim.NewMem(p, &cfg, 1), memsim.NewAddrSpace(1, cfg.BlockBytes))
		})
		pc.ok("memsim proc", eng.Run())
		return v
	}
	pc.med("memsim.read_hit_ns", func() float64 {
		return onProc(func(m *memsim.Mem, space *memsim.AddrSpace) float64 {
			n := pc.ops(1_000_000)
			a := space.AllocPrivate(0, 4096)
			m.ReadRange(a, 4096)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				m.Read(a + uint64(i&511)*8)
			}
			return nsPer(n, time.Since(t0))
		})
	})
	pc.med("memsim.read_miss_ns", func() float64 {
		return onProc(func(m *memsim.Mem, space *memsim.AddrSpace) float64 {
			// Stream 4 MB through a 256 KB cache, one load per block.
			const region = 4 << 20
			n := pc.ops(200_000)
			a := space.AllocPrivate(0, region)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				m.Read(a + uint64(i*32)%region)
			}
			return nsPer(n, time.Since(t0))
		})
	})
	pc.med("memsim.readrange_block_ns", func() float64 {
		return onProc(func(m *memsim.Mem, space *memsim.AddrSpace) float64 {
			const bytes = 64 << 10 // resident after the first walk
			reps := pc.ops(200)
			a := space.AllocPrivate(0, bytes)
			m.ReadRange(a, bytes)
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				m.ReadRange(a, bytes)
			}
			return nsPer(reps*bytes/32, time.Since(t0))
		})
	})
}

// --- coherence: the Dir_nNB directory ---

func probeCoherence(pc *probeCtx) {
	// One idle remote miss at a time (the paper: about 250 cycles).
	var simcyc float64
	pc.med("coherence.remote_miss_ns", func() float64 {
		n := pc.ops(8000)
		var ns float64
		res := machine.RunSM(cost.Default(2), parmacs.RoundRobin, func(nd *machine.SMNode) {
			if nd.ID == 1 {
				v := nd.RT.GMallocFOn(0, n*4) // one 32-byte block per element of 4
				before := nd.P.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss)
				t0 := time.Now()
				for i := 0; i < n; i++ {
					v.Get(nd.Mem, i*4)
				}
				ns = nsPer(n, time.Since(t0))
				simcyc = float64(nd.P.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss)-before) / float64(n)
			}
			nd.Barrier()
		})
		pc.ok("remote miss", res.Err)
		return ns
	})
	pc.ms.set("coherence.remote_miss_simcyc", simcyc)

	// Node 0 upgrades blocks that it and eight other nodes hold shared: each
	// write fans out eight invalidations and waits for their acks.
	pc.med("coherence.upgrade_fanout8_ns", func() float64 {
		n := pc.ops(1500)
		var ns float64
		var v memsim.FVec
		res := machine.RunSM(cost.Default(9), parmacs.RoundRobin, func(nd *machine.SMNode) {
			if nd.ID == 0 {
				v = nd.RT.GMallocFOn(0, n*4)
				nd.RT.Create(nd.P)
			} else {
				nd.RT.WaitCreate(nd.P)
			}
			nd.Barrier()
			for i := 0; i < n; i++ {
				v.Get(nd.Mem, i*4)
			}
			nd.Barrier()
			if nd.ID == 0 {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					v.Set(nd.Mem, i*4, 1)
				}
				ns = nsPer(n, time.Since(t0))
			}
			nd.Barrier()
		})
		pc.ok("upgrade fanout", res.Err)
		return ns
	})

	// Thirty-two processors missing to one home at once: the directory
	// queueing point of a latency-against-load curve.
	var hotcyc float64
	pc.med("coherence.hot_home_p32_ns", func() float64 {
		const procs = 32
		per := pc.ops(250)
		var ns float64
		var v memsim.FVec
		var t0 time.Time
		res := machine.RunSM(cost.Default(procs), parmacs.RoundRobin, func(nd *machine.SMNode) {
			if nd.ID == 0 {
				v = nd.RT.GMallocFOn(0, procs*per*4)
				nd.RT.Create(nd.P)
			} else {
				nd.RT.WaitCreate(nd.P)
			}
			nd.Barrier()
			if nd.ID == 0 {
				t0 = time.Now()
			}
			for i := 0; i < per; i++ {
				v.Get(nd.Mem, (nd.ID*per+i)*4)
			}
			nd.Barrier()
			if nd.ID == 0 {
				ns = nsPer(procs*per, time.Since(t0))
			}
		})
		pc.ok("hot home", res.Err)
		hotcyc = res.Summary.CyclesAll(stats.SharedMiss) / float64(per)
		return ns
	})
	pc.ms.set("coherence.hot_home_p32_simcyc", hotcyc)
}

// --- ni, am, cmmd: the message-passing stack ---

func probeMP(pc *probeCtx) {
	pc.med("ni.send_recv_ns", func() float64 {
		n := pc.ops(20000)
		var ns float64
		res := machine.RunMP(cost.Default(2), cmmd.Binary, func(nd *machine.MPNode) {
			if nd.ID == 0 {
				for i := 0; i < n; i++ {
					nd.NI.Send(&ni.Packet{Dst: 1, Args: [4]uint64{uint64(i)}, DataBytes: 8})
				}
			} else {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					nd.NI.WaitPacket(stats.LibComp)
					nd.NI.Recv()
				}
				ns = nsPer(n, time.Since(t0))
			}
			nd.Barrier()
		})
		pc.ok("ni send/recv", res.Err)
		return ns
	})

	// An active-message request answered by a reply, as in
	// TestAllocBudgetAMRoundTrip; with faults armed at zero rates the same
	// exchange goes through the reliable transport's sequencing and acks.
	roundTrip := func(cfg cost.Config, simcyc *float64) float64 {
		n := pc.ops(5000)
		var ns float64
		res := machine.RunMP(cfg, cmmd.Binary, func(nd *machine.MPNode) {
			replies, stop := 0, false
			var hReq, hRep, hStop int
			hReq = nd.AM.Register(func(pkt *ni.Packet) { nd.AM.Request(pkt.Src, hRep, pkt.Args, 0, nil) })
			hRep = nd.AM.Register(func(*ni.Packet) { replies++ })
			hStop = nd.AM.Register(func(*ni.Packet) { stop = true })
			if nd.ID == 0 {
				c0, t0 := nd.P.Clock(), time.Now()
				for i := 0; i < n; i++ {
					want := replies + 1
					nd.AM.Request(1, hReq, [4]uint64{1, 2, 3, 4}, 8, nil)
					nd.AM.PollUntil(func() bool { return replies >= want })
				}
				ns = nsPer(n, time.Since(t0))
				*simcyc = float64(nd.P.Clock()-c0) / float64(n)
				nd.AM.Request(1, hStop, [4]uint64{}, 0, nil)
			} else {
				nd.AM.PollUntil(func() bool { return stop })
			}
			nd.Barrier()
		})
		pc.ok("am round trip", res.Err)
		return ns
	}
	var amcyc, relcyc float64
	pc.med("am.roundtrip_ns", func() float64 { return roundTrip(cost.Default(2), &amcyc) })
	pc.ms.set("am.roundtrip_simcyc", amcyc)
	pc.med("am.reliable_roundtrip_ns", func() float64 {
		cfg := cost.Default(2)
		cfg.Faults = &cost.FaultsConfig{Seed: 1}
		return roundTrip(cfg, &relcyc)
	})

	// A 1 KB synchronous block transfer: RTS/CTS handshake plus streamed
	// data packets (BenchmarkMicroBlockTransfer).
	var blockcyc float64
	pc.med("cmmd.block_1k_ns", func() float64 {
		const words = 128
		n := pc.ops(400)
		var ns float64
		res := machine.RunMP(cost.Default(2), cmmd.Binary, func(nd *machine.MPNode) {
			buf := nd.AllocF(words)
			if nd.ID == 0 {
				c0, t0 := nd.P.Clock(), time.Now()
				for i := 0; i < n; i++ {
					nd.EP.RecvBlock(1, &buf, 0, words)
				}
				ns = nsPer(n, time.Since(t0))
				blockcyc = float64(nd.P.Clock()-c0) / float64(n)
			} else {
				for i := 0; i < n; i++ {
					nd.EP.SendBlock(0, 1, &buf, 0, words)
				}
			}
			nd.Barrier()
		})
		pc.ok("block transfer", res.Err)
		return ns
	})
	pc.ms.set("cmmd.block_1k_simcyc", blockcyc)

	collective := func(op func(nd *machine.MPNode, i int)) float64 {
		n := pc.ops(300)
		var ns float64
		var t0 time.Time
		res := machine.RunMP(cost.Default(32), cmmd.LopSided, func(nd *machine.MPNode) {
			nd.Barrier()
			if nd.ID == 0 {
				t0 = time.Now()
			}
			for i := 0; i < n; i++ {
				op(nd, i)
			}
			nd.Barrier()
			if nd.ID == 0 {
				ns = nsPer(n, time.Since(t0))
			}
		})
		pc.ok("collective", res.Err)
		return ns
	}
	pc.med("cmmd.reduce_p32_ns", func() float64 {
		return collective(func(nd *machine.MPNode, i int) {
			nd.Comm.Reduce(0, float64(nd.ID+i), int64(nd.ID), cmmd.OpMaxAbs)
		})
	})
	pc.med("cmmd.bcast_p32_ns", func() float64 {
		return collective(func(nd *machine.MPNode, i int) { nd.Comm.Bcast(0, float64(i)) })
	})
}

// --- parmacs: locks, barrier, reduction ---

func probeParmacs(pc *probeCtx) {
	var lockcyc float64
	pc.med("parmacs.lock_handoff_ns", func() float64 {
		const procs = 8
		per := pc.ops(100)
		var ns float64
		var lock *parmacs.Lock
		var counter memsim.IVec
		var t0 time.Time
		var c0 sim.Time
		res := machine.RunSM(cost.Default(procs), parmacs.RoundRobin, func(nd *machine.SMNode) {
			if nd.ID == 0 {
				lock = parmacs.NewLock(nd.RT)
				counter = nd.RT.GMallocI(0, 1)
				nd.RT.Create(nd.P)
			} else {
				nd.RT.WaitCreate(nd.P)
			}
			nd.Barrier()
			if nd.ID == 0 {
				t0, c0 = time.Now(), nd.P.Clock()
			}
			for k := 0; k < per; k++ {
				lock.Acquire(nd.Mem)
				counter.Set(nd.Mem, 0, counter.V[0]+1)
				lock.Release(nd.Mem)
			}
			nd.Barrier()
			if nd.ID == 0 {
				ns = nsPer(procs*per, time.Since(t0))
				lockcyc = float64(nd.P.Clock()-c0) / float64(procs*per)
			}
		})
		pc.ok("lock handoff", res.Err)
		return ns
	})
	pc.ms.set("parmacs.lock_handoff_simcyc", lockcyc)

	sm32 := func(init func(nd *machine.SMNode), op func(nd *machine.SMNode, i int), perArrival bool) float64 {
		const procs = 32
		n := pc.ops(300)
		var ns float64
		var t0 time.Time
		res := machine.RunSM(cost.Default(procs), parmacs.RoundRobin, func(nd *machine.SMNode) {
			if nd.ID == 0 {
				init(nd)
				nd.RT.Create(nd.P)
			} else {
				nd.RT.WaitCreate(nd.P)
			}
			nd.Barrier()
			if nd.ID == 0 {
				t0 = time.Now()
			}
			for i := 0; i < n; i++ {
				op(nd, i)
			}
			nd.Barrier()
			if nd.ID == 0 {
				ops := n
				if perArrival {
					ops *= procs
				}
				ns = nsPer(ops, time.Since(t0))
			}
		})
		pc.ok("parmacs p32", res.Err)
		return ns
	}
	pc.med("parmacs.barrier_p32_ns", func() float64 {
		return sm32(func(*machine.SMNode) {}, func(nd *machine.SMNode, i int) {
			nd.Compute(50)
			nd.Barrier()
		}, true)
	})
	pc.med("parmacs.reduce_p32_ns", func() float64 {
		var red *parmacs.Reduction
		// The barrier after each reduction keeps rounds apart, as Gauss-SM's
		// pivot search does.
		return sm32(func(nd *machine.SMNode) { red = parmacs.NewReduction(nd.RT) },
			func(nd *machine.SMNode, i int) {
				red.Reduce(nd.Mem, float64(nd.ID+i), int64(nd.ID), parmacs.OpMaxAbs, parmacs.GaussCats)
				nd.Barrier()
			}, false)
	})
}

// --- stats: charging, flushing, summarizing ---

func probeStats(pc *probeCtx) {
	pc.med("stats.charge_ns", func() float64 {
		n := pc.ops(4_000_000)
		a := &stats.Acct{}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a.Charge(stats.Category(i&3), 1)
		}
		d := time.Since(t0)
		probeSink += uint64(a.Cycles(stats.PhaseDefault, stats.Comp))
		return nsPer(n, d)
	})
	// One quantum's worth of accounting: four categories and two counts
	// dirtied, then folded into the phase table.
	pc.med("stats.flush_ns", func() float64 {
		n := pc.ops(1_000_000)
		a := &stats.Acct{}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a.Charge(stats.Comp, 10)
			a.Charge(stats.LocalMiss, 21)
			a.Charge(stats.LibComp, 45)
			a.Charge(stats.NetAccess, 20)
			a.Add(stats.CntMessages, 1)
			a.Add(stats.CntLocalMisses, 1)
			a.Flush()
		}
		return nsPer(n, time.Since(t0))
	})
	pc.med("stats.summarize_p1024_us", func() float64 {
		accts := make([]*stats.Acct, 1024)
		for i := range accts {
			a := &stats.Acct{}
			a.Charge(stats.Comp, int64(i))
			a.SetPhase(1)
			a.Charge(stats.LibComp, int64(i))
			a.Add(stats.CntMessages, 1)
			accts[i] = a
		}
		reps := pc.ops(20)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			probeSink += uint64(stats.Summarize(accts).Procs)
		}
		return nsPer(reps, time.Since(t0)) / 1e3
	})
}

// --- machine: assembling a 1024-processor machine around an empty program ---

func probeMachine(pc *probeCtx) {
	procs := 1024
	if pc.e.smoke {
		procs = 64
	}
	// build times construct and returns the mallocs of its last repetition.
	build := func(name string, construct func()) (allocs float64) {
		pc.med(name, func() float64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			construct()
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			allocs = float64(m1.Mallocs - m0.Mallocs)
			return millis(d)
		})
		return allocs
	}
	pc.ms.set("machine.build_allocs_p1024", build("machine.build_mp_p1024_ms", func() {
		machine.NewMP(cost.Default(procs), cmmd.LopSided, func(*machine.MPNode) {})
	}))
	build("machine.build_sm_p1024_ms", func() {
		machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(*machine.SMNode) {})
	})
}

// --- runner: cache key, checkpoints, replay-verified resume, the two forms ---

func probeRunner(pc *probeCtx) {
	pc.med("runner.cachekey_ns", func() float64 {
		n := pc.ops(50_000)
		spec := runner.Spec{App: "em3d", Machine: "sm", Procs: 32, Size: 200, Iters: 4, Policy: "rr"}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			spec.Iters = i & 7
			probeSink += spec.CacheKey()
		}
		return nsPer(n, time.Since(t0))
	})

	// The same run plain, with about eight checkpoints, and resumed through
	// the middle one (a resume replays from cycle zero and verifies state
	// and stats at the checkpoint, so its ratio to a plain run is 1 plus
	// the verification).
	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 8, Size: 192}
	if pc.e.smoke {
		spec.Size = 48
	}
	plainOut, err := runner.Run(spec, runOpts)
	if !pc.e.chk.check(err == nil && plainOut.Res.Err == nil, "probe checkpoint base run: %v", err) {
		return
	}
	ckdir := filepath.Join(pc.dir, "ckpt")
	pc.ok("mkdir", os.MkdirAll(ckdir, 0o755))
	ckOpts := runOpts
	ckOpts.CheckpointEvery = plainOut.Res.Elapsed / 8
	ckOpts.CheckpointDir = ckdir
	var mid string
	pc.med("runner.checkpoint_overhead_pct", func() float64 {
		plain := timeRun(pc, spec, runOpts)
		t0 := time.Now()
		out, err := runner.Run(spec, ckOpts)
		d := time.Since(t0).Seconds()
		if pc.e.chk.check(err == nil && len(out.Checkpoints) > 0, "probe checkpointed run: %v", err) {
			mid = out.Checkpoints[len(out.Checkpoints)/2].Path
			pc.e.chk.check(out.Fingerprint == plainOut.Fingerprint, "checkpointing changed the fingerprint")
		}
		return 100 * (d/plain - 1)
	})
	if snap, err := snapshot.ReadFile(mid); pc.e.chk.check(err == nil, "probe read checkpoint %q: %v", mid, err) {
		pc.med("runner.resume_verify_ratio", func() float64 {
			plain := timeRun(pc, spec, runOpts)
			opts := runOpts
			opts.Resume = snap
			t0 := time.Now()
			out, err := runner.Run(spec, opts)
			d := time.Since(t0).Seconds()
			pc.e.chk.check(err == nil && out.Verified && out.Fingerprint == plainOut.Fingerprint,
				"probe resumed run: err %v", err)
			return d / plain
		})
	}

	// Coroutine over step form on one wide run: stands in for a
	// wide-coroutine workload.
	pc.med("runner.form_ratio_p1024", func() float64 {
		step := runner.Spec{App: "em3d", Machine: "mp", Procs: 1024, Size: 8, Iters: 2, StepProcs: true}
		if pc.e.smoke {
			step.Procs = 64
		}
		co := step
		co.StepProcs = false
		return timeRun(pc, co, runOpts) / timeRun(pc, step, runOpts)
	})
}

// --- snapshot: encode, decode, atomic write ---

func probeSnapshot(pc *probeCtx) {
	state := make([]byte, pc.ops(4<<20))
	rng := sim.NewRNG(7)
	for i := range state {
		state[i] = byte(rng.Uint64())
	}
	snap := &snapshot.Snapshot{Spec: []byte(`{"app":"gauss"}`), Cycle: 12345,
		StateHash: snapshot.Hash(state), State: state, Stats: state[:len(state)/16]}
	var enc []byte
	pc.med("snapshot.encode_mb_per_s", func() float64 {
		t0 := time.Now()
		enc = snapshot.Encode(snap)
		return float64(len(enc)) / 1e6 / time.Since(t0).Seconds()
	})
	pc.med("snapshot.decode_mb_per_s", func() float64 {
		t0 := time.Now()
		_, err := snapshot.Decode(enc)
		d := time.Since(t0)
		pc.ok("snapshot decode", err)
		return float64(len(enc)) / 1e6 / d.Seconds()
	})
	pc.med("snapshot.atomic_write_ms", func() float64 {
		n := pc.ops(20)
		data := state[:min(64<<10, len(state))]
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pc.ok("atomic write", snapshot.AtomicWriteFile(filepath.Join(pc.dir, "atomic.bin"), data))
		}
		return millis(time.Since(t0)) / float64(n)
	})
}

// --- serve and vfs: WAL, result cache, raw fsync and rename ---

func probeServe(pc *probeCtx) {
	fsys := vfs.OS{}
	specJSON, _ := json.Marshal(runner.Spec{App: "gauss", Machine: "sm", Procs: 8, Size: 96})
	// Record.Type is an unexported enum; 1 is recSubmit, the record a
	// submit appends per job.
	rec := func(job int) serve.Record {
		return serve.Record{Type: 1, Job: uint64(job), Batch: 1, Index: job, Key: uint64(job), Spec: specJSON}
	}
	recs := make([]serve.Record, 1000)
	for i := range recs {
		recs[i] = rec(i + 1)
	}

	waldir := filepath.Join(pc.dir, "wal")
	wal, _, _, err := serve.OpenWAL(fsys, waldir, serve.DefaultSegmentBytes)
	if !pc.e.chk.check(err == nil, "probe open WAL: %v", err) {
		return
	}
	pc.med("serve.wal_append1_ms", func() float64 {
		n := pc.ops(40)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pc.ok("wal append", wal.Append(recs[i]))
		}
		return millis(time.Since(t0)) / float64(n)
	})
	pc.med("serve.wal_append120_ms", func() float64 {
		n := pc.ops(8)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pc.ok("wal append batch", wal.Append(recs[:120]...))
		}
		return millis(time.Since(t0)) / float64(n)
	})
	pc.med("serve.wal_compact_ms", func() float64 {
		t0 := time.Now()
		pc.ok("wal compact", wal.Compact(recs))
		return millis(time.Since(t0))
	})
	pc.ok("wal close", wal.Close())
	// The log now holds exactly the 1000 compacted records.
	pc.med("serve.wal_open_1k_ms", func() float64 {
		t0 := time.Now()
		w, got, _, err := serve.OpenWAL(fsys, waldir, serve.DefaultSegmentBytes)
		d := time.Since(t0)
		if pc.e.chk.check(err == nil && len(got) == len(recs), "probe reopen WAL: %d records, err %v", len(got), err) {
			pc.ok("wal close", w.Close())
		}
		return millis(d)
	})

	cache, err := serve.OpenCache(fsys, filepath.Join(pc.dir, "cache"))
	if !pc.e.chk.check(err == nil, "probe open cache: %v", err) {
		return
	}
	result := func(key int) *serve.Result {
		return &serve.Result{Key: uint64(key), Fingerprint: 42, Elapsed: 1e6, AppLine: "maxErr=1e-13",
			Breakdown: []serve.BreakdownEntry{{Name: "Computation", Cycles: 5e5}, {Name: "Shared Misses", Cycles: 5e5}}}
	}
	nput := pc.ops(30)
	pc.med("serve.cache_put_ms", func() float64 {
		t0 := time.Now()
		for i := 0; i < nput; i++ {
			pc.ok("cache put", cache.Put(result(i)))
		}
		return millis(time.Since(t0)) / float64(nput)
	})
	pc.med("serve.cache_get_ms", func() float64 {
		n := pc.ops(600)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r, err := cache.Get(uint64(i % nput))
			pc.e.chk.check(err == nil && r != nil, "probe cache get %d: %v", i%nput, err)
		}
		return millis(time.Since(t0)) / float64(n)
	})

	pc.med("vfs.os_fsync_ms", func() float64 {
		n := pc.ops(40)
		f, err := fsys.Create(filepath.Join(pc.dir, "fsync.bin"))
		if !pc.e.chk.check(err == nil, "probe create: %v", err) {
			return 0
		}
		defer f.Close()
		block := make([]byte, 4096)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f.Write(block)
			pc.ok("fsync", f.Sync())
		}
		return millis(time.Since(t0)) / float64(n)
	})
	pc.med("vfs.os_rename_ms", func() float64 {
		n := pc.ops(200)
		a, b := filepath.Join(pc.dir, "rename.a"), filepath.Join(pc.dir, "rename.b")
		pc.ok("write", fsys.WriteFile(a, []byte("x"), 0o644))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pc.ok("rename", fsys.Rename(a, b))
			a, b = b, a
		}
		return millis(time.Since(t0)) / float64(n)
	})
}
