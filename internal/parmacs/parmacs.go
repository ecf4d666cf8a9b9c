// Package parmacs provides the shared-memory programming primitives the
// paper's programs use (§4.2): gmalloc allocation from the shared address
// space with round-robin placement (or the local-allocation policy of the
// EM3D ablation), the create() start-up model in which node 0 initializes
// while other nodes wait, MCS queue locks (Mellor-Crummey & Scott, TOCS
// 1991), MCS-style software reductions, and the hardware barrier.
package parmacs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/cost"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Policy selects where gmalloc homes shared data.
type Policy int

const (
	// RoundRobin stripes the shared heap across nodes page by page — the
	// paper's default gmalloc behavior.
	RoundRobin Policy = iota
	// Local homes each allocation at the calling node — the allocation
	// ablation of paper Table 17.
	Local
)

// Runtime is the machine-wide parmacs state.
type Runtime struct {
	Cfg    *cost.Config
	Pr     *coherence.Protocol
	Space  *memsim.AddrSpace
	Bar    *sim.Barrier
	Policy Policy

	// created flips to true in the create event (engine context), so every
	// processor observes the same quantum-stable value.
	created      bool
	createTime   sim.Time
	createCalled bool // set synchronously by node 0, for double-call detection
	startWait    []*sim.Proc
	lockSerial   int
}

// NewRuntime wires the parmacs layer to the coherence protocol and barrier.
// Under the cost.Config.HWCombining ablation the barrier also carries the
// reductions.
func NewRuntime(cfg *cost.Config, pr *coherence.Protocol, space *memsim.AddrSpace, bar *sim.Barrier) *Runtime {
	return &Runtime{Cfg: cfg, Pr: pr, Space: space, Bar: bar}
}

// alloc returns a base address for n bytes under the current policy.
func (rt *Runtime) alloc(caller int, bytes int) uint64 {
	if rt.Policy == Local {
		return rt.Space.AllocSharedOn(caller, bytes)
	}
	return rt.Space.AllocShared(bytes)
}

// GMallocF allocates a shared double-precision vector of n elements
// (parmacs G_MALLOC).
func (rt *Runtime) GMallocF(caller int, n int) memsim.FVec {
	return memsim.NewFVec(rt.alloc(caller, n*memsim.WordBytes), n)
}

// GMallocFSized allocates a shared float vector with explicit element size
// (4 for single precision).
func (rt *Runtime) GMallocFSized(caller, n, elemBytes int) memsim.FVec {
	return memsim.NewFVecSized(rt.alloc(caller, n*elemBytes), n, elemBytes)
}

// GMallocI allocates a shared int vector of n elements.
func (rt *Runtime) GMallocI(caller int, n int) memsim.IVec {
	return memsim.NewIVec(rt.alloc(caller, n*memsim.WordBytes), n)
}

// GMallocFOn / GMallocIOn allocate shared vectors homed at an explicit node
// regardless of policy (MCS queue nodes, per-node reduction slots).
func (rt *Runtime) GMallocFOn(home int, n int) memsim.FVec {
	return memsim.NewFVec(rt.Space.AllocSharedOn(home, n*memsim.WordBytes), n)
}

// GMallocIOn allocates a shared int vector homed at an explicit node.
func (rt *Runtime) GMallocIOn(home int, n int) memsim.IVec {
	return memsim.NewIVec(rt.Space.AllocSharedOn(home, n*memsim.WordBytes), n)
}

// WaitCreate is called by every node but 0 at program start: the node idles
// (charged to Start-up Wait, as in the paper's MSE-SM breakdown) until node
// 0 finishes serial initialization and calls Create.
func (rt *Runtime) WaitCreate(p *sim.Proc) {
	for !rt.StepWaitCreate(p) {
		p.Yield()
	}
}

// Create is called by node 0 after initialization: it starts the worker
// function on all other nodes (parmacs create(f) duplicating the data
// segments — the duplication cost is part of node 0's initialization, which
// the application charges as computation).
func (rt *Runtime) Create(p *sim.Proc) {
	if p.ID != 0 {
		p.Fail(fmt.Errorf("%w: called by node %d, not node 0", ErrBadCreate, p.ID))
	}
	if rt.createCalled {
		p.Fail(fmt.Errorf("%w: called twice", ErrBadCreate))
	}
	rt.createCalled = true
	// Publish through an event: waiters are woken — and created becomes
	// observable — in the event phase, in processor-ID order, so the outcome
	// does not depend on the order this quantum's processors ran in.
	at := p.Clock()
	p.Schedule(at, func() {
		rt.created = true
		rt.createTime = at
		ws := rt.startWait
		rt.startWait = nil
		sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
		for _, w := range ws {
			w.Wake(at)
		}
	})
}

// Barrier enters the hardware barrier (paper: 100 cycles from last arrival),
// charging the wait to the barrier category.
func (rt *Runtime) Barrier(p *sim.Proc) { rt.Bar.Wait(p, stats.BarrierWait) }

// --- MCS locks ---

// lockOpCycles is the instruction overhead of lock bookkeeping around the
// memory operations themselves.
const lockOpCycles = 12

// Lock is an MCS queue lock. Each processor spins on a separate,
// locally cached shared location; the releaser passes the lock with a
// single remote write that terminates the spin (paper §4.2 footnote 5).
// The tail pointer uses the machine's atomic swap; release uses
// compare-and-swap as in the original MCS algorithm (the paper's machine
// exposes atomic swap — MCS provides a swap-only release at the cost of
// extra handshaking, which we fold into the same modeled cost).
type Lock struct {
	rt   *Runtime
	tail memsim.IVec // one element: -1 free, else waiter node id

	// The queue cells: node i's locked flag and next pointer, one word each
	// in its own block homed at node i. A waiter touches only its own cells
	// and its neighbours', so per node the lock keeps a value and a simulated
	// address and nothing else — four vectors per lock, not two objects per
	// node; lockedCell and nextCell build the one-word view the memory calls
	// take (the protocol keeps no pointer to it: spins re-derive the address
	// each call and watchers are keyed by block).
	locked, next     []int64
	lockedAt, nextAt []uint64
}

func (l *Lock) lockedCell(i int) memsim.IVec {
	return memsim.IVec{Base: l.lockedAt[i], V: l.locked[i : i+1 : i+1]}
}

func (l *Lock) nextCell(i int) memsim.IVec {
	return memsim.IVec{Base: l.nextAt[i], V: l.next[i : i+1 : i+1]}
}

// NewLock allocates a lock. Called once (by node 0) during initialization.
func NewLock(rt *Runtime) *Lock {
	n := rt.Cfg.Procs
	l := &Lock{
		rt: rt, tail: rt.GMallocIOn(rt.lockSerial%n, 1),
		locked: make([]int64, n), next: make([]int64, n),
		lockedAt: make([]uint64, n), nextAt: make([]uint64, n),
	}
	rt.lockSerial++
	l.tail.V[0] = -1
	for i := 0; i < n; i++ {
		l.lockedAt[i] = rt.Space.AllocSharedOn(i, memsim.WordBytes)
		l.nextAt[i] = rt.Space.AllocSharedOn(i, memsim.WordBytes)
		l.next[i] = -1
	}
	return l
}

// Acquire takes the lock; all cycles (swap, queue linking, spinning) are
// charged to the Locks category.
func (l *Lock) Acquire(m *memsim.Mem) {
	var ls LockStep
	for !l.StepAcquire(&ls, m) {
		m.P.Yield()
	}
}

// Release passes the lock to the next waiter, if any.
func (l *Lock) Release(m *memsim.Mem) {
	var ls LockStep
	for !l.StepRelease(&ls, m) {
		m.P.Yield()
	}
}

// --- MCS-style software reductions ---

// Op is the reduction operator set shared with cmmd and the combining
// barrier (sim.ReduceOp). A reduction with an undefined operator fails the
// run with sim.ErrUnknownOp.
type Op = sim.ReduceOp

// The reduction operators.
const (
	OpSum    = sim.OpSum
	OpMaxAbs = sim.OpMaxAbs
)

// ErrBadCreate reports misuse of the create() primitive, through the
// engine's structured abort path (matching am.ErrNoHandler) instead of
// panicking the host process.
var ErrBadCreate = errors.New("parmacs: invalid create()")

// Cats selects the accounting categories for a reduction: Gauss-SM reports
// reductions as their own row ("Reductions 6%"), while LCP-SM splits them
// into "Sync Comp" and "Sync Miss".
type Cats struct {
	Comp stats.Category // computation inside the primitive
	Miss stats.Category // cache-miss stalls inside the primitive
	Wait stats.Category // spin-waiting inside the primitive
}

// GaussCats charges everything to the Reductions row.
var GaussCats = Cats{Comp: stats.ReductionWait, Miss: stats.ReductionWait, Wait: stats.ReductionWait}

// SyncCats charges computation to Sync Comp and misses to Sync Miss.
var SyncCats = Cats{Comp: stats.SyncComp, Miss: stats.SyncMiss, Wait: stats.SyncComp}

// reduceOpCycles is the per-node instruction overhead of one reduction step.
const reduceOpCycles = 18

// Reduction combines values up a 4-ary tree, the structure of the MCS
// barrier's upward phase: each parent spins on locally homed per-child
// flags; children deposit a value and bump the flag with remote writes.
type Reduction struct {
	rt    *Runtime
	arity int

	flags []memsim.IVec // per node: one slot per child, homed at the node
	vals  []memsim.FVec // per node: contributed value, homed at the node
	idxs  []memsim.IVec // per node: contributed index
	round []int64       // per node local round counter (private bookkeeping)
}

// NewReduction allocates the reduction tree. Called once during
// initialization.
func NewReduction(rt *Runtime) *Reduction {
	n := rt.Cfg.Procs
	r := &Reduction{rt: rt, arity: 4, round: make([]int64, n)}
	for i := 0; i < n; i++ {
		r.flags = append(r.flags, rt.GMallocIOn(i, r.arity))
		r.vals = append(r.vals, rt.GMallocFOn(i, 1))
		r.idxs = append(r.idxs, rt.GMallocIOn(i, 1))
	}
	return r
}

// Reduce combines (val, idx) across all nodes, delivering the result at
// node 0 (zeros elsewhere). All nodes must call it in the same order.
func (r *Reduction) Reduce(m *memsim.Mem, val float64, idx int64, op Op, cats Cats) (float64, int64) {
	var rs RedStep
	for {
		if v, i, done := r.StepReduce(&rs, m, val, idx, op, cats); done {
			return v, i
		}
		m.P.Yield()
	}
}
