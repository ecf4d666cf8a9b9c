// Package machine assembles the two simulated computers the paper compares:
// a message-passing machine (CM-5-like network interface + active messages +
// CMMD library) and a cache-coherent shared-memory machine (Dir_nNB
// directories + parmacs primitives). Both share the engine, cost model,
// cache, TLB, and hardware barrier — the "common hardware base" of paper
// Table 1.
package machine

import (
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/cmmd"
	"repro/internal/coherence"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Result is the outcome of a simulated run.
type Result struct {
	// Summary holds per-processor-average cycles and event counts per
	// phase, the form the paper's tables report.
	Summary *stats.Summary
	// Elapsed is the longest processor virtual time (total run length).
	Elapsed sim.Time
	// Accts exposes the raw per-processor accounting.
	Accts []*stats.Acct
	// Err is non-nil when the run aborted (e.g. a transport retry budget
	// exhausted under fault injection produced a faults.StarvationError);
	// the stats then cover the run up to the abort, not a complete program.
	Err error
}

func seedFor(i int) uint64 { return 0xC0FFEE + uint64(i)*0x9E3779B97F4A7C15 }

// node is what a node of either machine holds and does alike.
type node struct {
	ID    int
	P     *sim.Proc
	Mem   *memsim.Mem
	Cfg   *cost.Config
	Space *memsim.AddrSpace
	Procs int

	appState []func(*snapshot.Enc)
}

// OnState registers an application state contributor: at every snapshot the
// callbacks run in registration order and append the program's computation
// state (principal arrays, counters) to the canonical encoding. Programs
// register their arrays right after allocating them.
func (n *node) OnState(fn func(*snapshot.Enc)) { n.appState = append(n.appState, fn) }

// Compute charges c cycles of application computation.
func (n *node) Compute(c int64) { n.P.Compute(c) }

// Phase switches the accounting phase (e.g. initialization vs. main loop).
func (n *node) Phase(ph stats.Phase) { n.P.Acct.SetPhase(ph) }

// AllocF allocates a private double-precision vector in this node's local
// memory.
func (n *node) AllocF(elems int) memsim.FVec {
	return memsim.NewFVec(n.Space.AllocPrivate(n.ID, elems*memsim.WordBytes), elems)
}

// AllocFSized allocates a private float vector with explicit element size
// (4 for single precision, as Gauss uses).
func (n *node) AllocFSized(elems, elemBytes int) memsim.FVec {
	return memsim.NewFVecSized(n.Space.AllocPrivate(n.ID, elems*elemBytes), elems, elemBytes)
}

// AllocI allocates a private int vector in this node's local memory.
func (n *node) AllocI(elems int) memsim.IVec {
	return memsim.NewIVec(n.Space.AllocPrivate(n.ID, elems*memsim.WordBytes), elems)
}

// --- Message-passing machine ---

// MPNode is one node of the message-passing machine, handed to the target
// program. Programs compute with Compute, allocate private data with
// AllocF/AllocI, and communicate through AM (CMAML), EP (CMMD), and Comm
// (software collectives).
type MPNode struct {
	node
	NI   *ni.NI
	AM   *am.AM
	EP   *cmmd.Endpoint
	Comm *cmmd.Comm
}

// Barrier enters the hardware barrier.
func (n *MPNode) Barrier() { n.EP.Barrier() }

// MPMachine is a configured message-passing machine, exposing internals for
// tests and reports.
type MPMachine struct {
	Eng   *sim.Engine
	Net   *ni.Network
	Bar   *sim.Barrier
	Nodes []*MPNode
}

// StepProgramMP builds one node's step function: called at the node's first
// dispatch (engine context, quantum zero — where a blocking program's body
// starts), it does the host-side setup and returns the continuation that
// runs the node, one call per dispatch, until it returns sim.StepDone.
type StepProgramMP func(n *MPNode) func(*sim.Proc) sim.StepStatus

// NewMPStep builds a message-passing machine that runs a step program on
// every node, each as a step processor: no goroutine, no coroutine switch —
// the engine calls the continuation directly. The processor form follows
// the program: a step program is built here, a blocking one by NewMP.
func NewMPStep(cfg cost.Config, shape cmmd.Shape, program StepProgramMP) *MPMachine {
	return buildMP(cfg, shape, nil, program)
}

// NewMP builds a message-passing machine with the given collective tree
// shape; the blocking program runs on every node, each on a coroutine.
func NewMP(cfg cost.Config, shape cmmd.Shape, program func(n *MPNode)) *MPMachine {
	return buildMP(cfg, shape, program, nil)
}

func buildMP(cfg cost.Config, shape cmmd.Shape, program func(n *MPNode), stepProgram StepProgramMP) *MPMachine {
	if err := cfg.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	c := cfg // one copy shared by all nodes
	eng := sim.NewEngine(c.NetLatency)
	net := ni.NewNetwork(eng, &c)
	bar := sim.NewBarrier(eng, c.Procs, c.BarrierLatency)
	space := memsim.NewAddrSpace(c.Procs, c.BlockBytes)

	// Fault injection (MP only: shared-memory coherence traffic does not
	// traverse this network model). A fault plan makes the network lossy, so
	// every node also gets a reliable transport under its AM layer, plus an
	// end-of-program quiesce so no node exits while a peer still retransmits.
	var fc cost.FaultsConfig
	var grp *am.Group
	if c.Faults != nil {
		fc = c.Faults.WithDefaults(c.NetLatency)
		net.Faults = faults.FromConfig(fc)
		grp = am.NewGroup(eng)
	}

	m := &MPMachine{Eng: eng, Net: net, Bar: bar}
	topo := cmmd.NewTopology(&c, shape) // one set of collective trees, read by every node
	nodes := make([]MPNode, c.Procs)    // one block, not an object per node
	m.Nodes = make([]*MPNode, c.Procs)
	for i := 0; i < c.Procs; i++ {
		i := i
		var p *sim.Proc
		if stepProgram != nil {
			var stepFn func(*sim.Proc) sim.StepStatus
			var quiesce *am.ShutdownStep // the end-of-program transport shutdown
			if grp != nil {
				quiesce = new(am.ShutdownStep)
			}
			running := true
			p = eng.AddStepProc(func(sp *sim.Proc) sim.StepStatus {
				if stepFn == nil {
					stepFn = stepProgram(m.Nodes[i])
				}
				if running {
					if stepFn(sp) != sim.StepDone {
						return sim.StepYield
					}
					running = false
				}
				if quiesce != nil && !m.Nodes[i].AM.Rel().StepShutdown(quiesce) {
					return sim.StepYield
				}
				return sim.StepDone
			})
		} else {
			p = eng.AddProc(func(*sim.Proc) {
				program(m.Nodes[i])
				if rel := m.Nodes[i].AM.Rel(); rel != nil {
					rel.Shutdown()
				}
			})
		}
		mem := memsim.NewMem(p, &c, seedFor(i))
		nif := net.Attach(p)
		a := am.New(nif)
		if grp != nil {
			am.NewReliable(a, c.Procs, fc, grp)
		}
		ep := cmmd.NewEndpoint(i, c.Procs, a, mem, bar)
		comm := cmmd.NewComm(ep, topo)
		nodes[i] = MPNode{
			node: node{ID: i, P: p, Mem: mem, Cfg: &c, Space: space, Procs: c.Procs},
			NI:   nif, AM: a, EP: ep, Comm: comm,
		}
		m.Nodes[i] = &nodes[i]
	}
	if c.OnBuild != nil {
		c.OnBuild(m)
	}
	return m
}

// Run executes the machine to completion and summarizes. A non-nil
// Result.Err reports an aborted run (stats cover the partial execution), or
// a completed one whose network did not conserve packets
// (*ni.ConservationError).
func (m *MPMachine) Run() *Result {
	err := m.Eng.Run()
	if err == nil {
		err = m.Net.CheckConservation()
	}
	return summarize(m.Eng, err)
}

// RunMP builds and runs a message-passing machine in one step.
func RunMP(cfg cost.Config, shape cmmd.Shape, program func(n *MPNode)) *Result {
	return NewMP(cfg, shape, program).Run()
}

// --- Shared-memory machine ---

// SMNode is one node of the shared-memory machine. Programs allocate shared
// data through RT (gmalloc), private data with AllocF/AllocI, and
// synchronize with RT's locks, reductions, and barrier.
type SMNode struct {
	node
	Pr *coherence.Protocol
	RT *parmacs.Runtime
}

// Barrier enters the hardware barrier.
func (n *SMNode) Barrier() { n.RT.Barrier(n.P) }

// SMMachine is a configured shared-memory machine.
type SMMachine struct {
	Eng   *sim.Engine
	Pr    *coherence.Protocol
	RT    *parmacs.Runtime
	Nodes []*SMNode
}

// StepProgramSM is StepProgramMP for the shared-memory machine.
type StepProgramSM func(n *SMNode) func(*sim.Proc) sim.StepStatus

// NewSMStep builds a shared-memory machine that runs a step program on
// every node, each as a step processor; see NewMPStep. The checker,
// watchdog, control-message fault injection and hardware combining remain
// available — each is the same code under either processor form.
func NewSMStep(cfg cost.Config, policy parmacs.Policy, program StepProgramSM) *SMMachine {
	return buildSM(cfg, policy, nil, program)
}

// NewSM builds a shared-memory machine with the given allocation policy;
// the blocking program runs on every node, each on a coroutine.
func NewSM(cfg cost.Config, policy parmacs.Policy, program func(n *SMNode)) *SMMachine {
	return buildSM(cfg, policy, program, nil)
}

func buildSM(cfg cost.Config, policy parmacs.Policy, program func(n *SMNode), stepProgram StepProgramSM) *SMMachine {
	if err := cfg.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	c := cfg
	eng := sim.NewEngine(c.NetLatency)
	bar := sim.NewBarrier(eng, c.Procs, c.BarrierLatency)
	space := memsim.NewAddrSpace(c.Procs, c.BlockBytes)
	pr := coherence.New(eng, &c)
	rt := parmacs.NewRuntime(&c, pr, space, bar)
	rt.Policy = policy

	// Robustness layers (all off by default; with none armed the protocol
	// runs bit-identical to a tree without them — a regression test asserts
	// this). These mirror the MP machine's fault plan + reliable transport:
	// the invariant checker, control-message fault injection, and the
	// coherence livelock watchdog.
	if c.SMCheck {
		pr.EnableChecker()
	}
	if c.SMFaults != nil {
		pr.EnableCtrlFaults(c.SMFaults.WithDefaults(c.NetLatency))
	}
	if c.SMWatchdog > 0 {
		pr.EnableWatchdog(c.SMWatchdog)
	}

	m := &SMMachine{Eng: eng, Pr: pr, RT: rt}
	m.Nodes = make([]*SMNode, c.Procs)
	for i := 0; i < c.Procs; i++ {
		i := i
		var p *sim.Proc
		if stepProgram != nil {
			var stepFn func(*sim.Proc) sim.StepStatus
			p = eng.AddStepProc(func(sp *sim.Proc) sim.StepStatus {
				if stepFn == nil {
					stepFn = stepProgram(m.Nodes[i])
				}
				return stepFn(sp)
			})
		} else {
			p = eng.AddProc(func(*sim.Proc) { program(m.Nodes[i]) })
		}
		mem := memsim.NewMem(p, &c, seedFor(i))
		pr.AttachMem(i, mem)
		m.Nodes[i] = &SMNode{
			node: node{ID: i, P: p, Mem: mem, Cfg: &c, Space: space, Procs: c.Procs},
			Pr:   pr, RT: rt,
		}
	}
	if c.OnBuild != nil {
		c.OnBuild(m)
	}
	return m
}

// Run executes the machine to completion and summarizes. When the invariant
// checker is armed, a clean run is followed by the end-of-run global
// verification (every block's invariants plus per-home message
// conservation); its verdict lands in Result.Err like any other abort.
func (m *SMMachine) Run() *Result {
	err := m.Eng.Run()
	if err == nil {
		if ck := m.Pr.Checker(); ck != nil {
			err = ck.Final()
		}
	}
	return summarize(m.Eng, err)
}

// RunSM builds and runs a shared-memory machine in one step.
func RunSM(cfg cost.Config, policy parmacs.Policy, program func(n *SMNode)) *Result {
	return NewSM(cfg, policy, program).Run()
}

// summarize builds the run's Result. err is how the run ended; a run that
// completed is then held to the accounting contract (checkAccounting), and
// a breach becomes its Err.
func summarize(eng *sim.Engine, err error) *Result {
	procs := eng.Procs()
	accts := make([]*stats.Acct, len(procs))
	var maxClock sim.Time
	for i, p := range procs {
		accts[i] = p.Acct
		if p.Clock() > maxClock {
			maxClock = p.Clock()
		}
	}
	if err == nil {
		err = checkAccounting(procs)
	}
	return &Result{Summary: stats.Summarize(accts), Elapsed: maxClock, Accts: accts, Err: err}
}

// AccountingError reports a processor whose cycles, summed over every phase
// and category, differ from its clock at the end of a completed run: some
// code advanced the clock without charging a category, or charged one
// without advancing the clock, so the run's breakdown does not account for
// its time.
type AccountingError struct {
	Proc   int
	Clock  sim.Time
	Cycles [stats.NumCategories]int64 // per category, summed over phases
}

func (e *AccountingError) Error() string {
	var b strings.Builder
	var sum int64
	for c, v := range e.Cycles {
		sum += v
		if v != 0 {
			fmt.Fprintf(&b, " %v=%d", stats.Category(c), v)
		}
	}
	return fmt.Sprintf("machine: proc %d accounts %d cycles but its clock reads %d:%s", e.Proc, sum, e.Clock, b.String())
}

// checkAccounting holds every processor to the paper's accounting: its
// category cycles sum to its clock. It runs once per completed run, in
// O(P × phases × categories); an aborted run may end with a wake delivered
// but not yet charged, so it is not checked.
func checkAccounting(procs []*sim.Proc) error {
	for _, p := range procs {
		e := AccountingError{Proc: p.ID, Clock: p.Clock()}
		var total int64
		for ph := stats.Phase(0); int(ph) < p.Acct.NumPhases(); ph++ {
			for c := range e.Cycles {
				v := p.Acct.Cycles(ph, stats.Category(c))
				e.Cycles[c] += v
				total += v
			}
		}
		if total != e.Clock {
			return &e
		}
	}
	return nil
}
