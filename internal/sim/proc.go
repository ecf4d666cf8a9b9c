//go:build go1.23

// The constraint above raises this file's language version past the
// module's go 1.22 line (which the nested bench module pins) so it may
// import iter; the toolchain line in go.mod means it is always built.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/stats"
)

// Proc is a simulated processor. Its body runs either as a coroutine under
// engine control (AddProc) or as a step function the dispatcher invokes as
// a direct continuation call (AddStepProc). Within a quantum, processors
// only touch their own state (or shared structures whose outcome does not
// depend on arrival order, like the barrier); cross-processor effects
// travel as events raised through Proc.Schedule, which run no earlier than
// the next quantum's event phase.
//
// A processor has a local virtual clock. Pure computation (Compute) may run
// ahead of the engine's quantum; any operation with cross-processor
// visibility (memory-system access, network-interface access,
// synchronization) first synchronizes with the quantum via Interact.
//
// Dispatch is a loop on the engine's goroutine over the quantum's ID-sorted
// batch. A coroutine proc's body lives behind iter.Pull: dispatching it is
// a runtime coroutine switch that hands the dispatcher's thread straight to
// the body, and the body's yield is the same switch back — no channel, no
// run queue, no wakeup of another host thread. A step proc has no
// goroutine at all: the dispatcher simply calls its step function.
type Proc struct {
	ID   int
	Acct *stats.Acct

	eng   *Engine
	clock Time

	// resume and halt are the iter.Pull pair around body: resume switches
	// into the coroutine until its next yield, halt unwinds it (or, before
	// the first resume, discards it unrun). yield is the body's side of
	// the switch. All three are nil for continuation-dispatched procs,
	// whose step is non-nil instead.
	resume func() (struct{}, bool)
	halt   func()
	yield  func(struct{}) bool
	body   func(*Proc)
	step   func(*Proc) StepStatus

	done        bool
	blocked     bool
	wakeKind    uint8
	blockReason string
	blockStart  Time
	blockCat    stats.Category
	wakeAt      Time
	wakeA       int64 // WakeVals payload, consumed by WakePayloadVals
	wakeB       int64
	diag        func() string // optional library diagnostic for stall reports

	// Accounting modes. Library and synchronization code switch these so
	// that computation and cache misses are charged to the right category
	// (the paper separates "Lib Comp"/"Lib Misses" from application
	// computation and local misses).
	compCat   stats.Category
	missCat   stats.Category
	missCnt   stats.Count
	sharedCat stats.Category
	wfCat     stats.Category
	modes     []mode
}

type mode struct {
	comp   stats.Category
	miss   stats.Category
	cnt    stats.Count
	shared stats.Category
	wf     stats.Category
}

// Wake kinds: which of Wake/WakeVals delivered the pending wake.
// WakePayload and WakePayloadVals check the kind, so consuming a wake
// through the wrong one fails loudly instead of returning stale zeros.
const (
	wakeNone  uint8 = iota
	wakePlain       // Wake: no payload
	wakeVals        // WakeVals: payload in wakeA/wakeB
)

// StepStatus is a step processor's verdict after one dispatch: run again
// (next quantum, or at the pending wake if it blocked) or finish.
type StepStatus uint8

const (
	// StepYield returns control to the dispatcher; the step runs again in
	// the next quantum its clock reaches (or, after StepBlock, when a
	// wake arrives).
	StepYield StepStatus = iota
	// StepDone retires the processor; the step is never called again.
	StepDone
)

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Clock returns the processor's local virtual time.
func (p *Proc) Clock() Time { return p.clock }

// procHalt is the sentinel panic used to unwind a processor when the engine
// aborts the run (or the processor calls Fail); retire absorbs it so the
// processor finishes cleanly instead of staying parked in its coroutine.
type procHalt struct{}

// ProcPanicError is what Engine.Run panics with, on its caller's goroutine,
// when a processor body panicked: the run cannot continue, but the failure
// belongs to whoever called Run — a recover around Run (the sweep driver's,
// the daemon's per-job isolation) sees it like any other panic. Stack is
// the panicking body's stack, captured before it unwound.
type ProcPanicError struct {
	Proc  int
	Value any
	Stack []byte
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: proc %d panicked: %v", e.Proc, e.Value)
}

// start wraps the coroutine body in iter.Pull. The body does not run until
// the first resume.
func (p *Proc) start() {
	p.resume, p.halt = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.retire()
		p.body(p)
	})
}

// retire is deferred around every processor body, coroutine or step. It
// absorbs the procHalt sentinel, and aborts the run with any other panic,
// the body's stack captured before it unwinds: Run re-raises it once every
// other processor has been unwound.
func (p *Proc) retire() {
	if r := recover(); r != nil {
		p.done = true
		if _, halt := r.(procHalt); !halt {
			p.eng.Abort(&ProcPanicError{Proc: p.ID, Value: r, Stack: debug.Stack()})
		}
	}
}

// dispatch runs the processor for one quantum on the calling goroutine: a
// step proc's continuation is called right here; a coroutine is switched
// to, and control comes back when it yields or its body ends.
func (p *Proc) dispatch() {
	if p.step != nil {
		p.runStep()
	} else if _, live := p.resume(); !live {
		// The engine counts finished processors when it settles the
		// batch. The coroutine is gone, so a retired processor pins no
		// stack.
		p.done = true
	}
}

// runStep executes one dispatch of a step processor.
func (p *Proc) runStep() {
	defer p.retire()
	if p.step(p) == StepDone {
		if p.blocked {
			panic(fmt.Sprintf("sim: step proc %d returned StepDone while blocked", p.ID))
		}
		p.done = true
	}
}

// Yield suspends a coroutine processor until the engine dispatches it again
// (next quantum, or at the wake if it parked with StepBlock). Blocking
// library calls are `for !x.StepFoo(&frame, args...) { p.Yield() }` over
// their step forms; a step processor returns StepYield instead. A false
// yield means the engine halted the coroutine instead.
func (p *Proc) Yield() {
	if p.step != nil {
		panic(fmt.Sprintf("sim: step proc %d cannot yield from inside its step; return StepYield instead", p.ID))
	}
	if !p.yield(struct{}{}) {
		panic(procHalt{})
	}
}

// Fail aborts the whole run with err on behalf of this processor: the engine
// stops scheduling, unwinds every processor, and Run returns err. Fail does
// not return. Libraries use it to surface structured failures (e.g. a
// transport retry budget exhausted) instead of panicking or deadlocking.
// The run stops at the next quantum boundary, and the first abort wins: the
// dispatcher runs a quantum's processors in ID order, so when several fail
// in the same quantum the lowest ID wins.
func (p *Proc) Fail(err error) {
	p.eng.Abort(err)
	panic(procHalt{})
}

// Schedule raises an event at absolute time at. This is the only way
// processor-context code may raise events. The event is enqueued at once;
// the dispatcher runs a quantum's processors in ID order, so sequence
// numbers — and with them every same-time tie-break — follow (processor
// ID, raise order). Handlers run in a later quantum's event phase (engine
// context), where Engine.Schedule and Proc.Wake are legal.
func (p *Proc) Schedule(at Time, fn func()) {
	p.ScheduleAction(at, funcAction(fn))
}

// ScheduleAction is Schedule for a closure-free Action. Hot paths pair this
// with subsystem freelists so raising an event allocates nothing.
func (p *Proc) ScheduleAction(at Time, act Action) {
	p.eng.push(at, act)
}

// SetDiagnostic registers fn to render this processor's library-level state
// (e.g. unacked transport sequence numbers) in engine stall reports.
func (p *Proc) SetDiagnostic(fn func() string) { p.diag = fn }

// Compute charges cycles of computation at the current computation category
// (application computation by default; library computation inside
// message-passing library code). The clock may run ahead of the engine's
// quantum; the processor yields lazily at its next interaction.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: proc %d: negative compute %d", p.ID, cycles))
	}
	p.Acct.Charge(p.compCat, cycles)
	p.clock += cycles
}

// ChargeStall charges cycles to an explicit category and advances the clock.
// Used by the memory system and libraries for stalls with a known cost.
func (p *Proc) ChargeStall(cat stats.Category, cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: proc %d: negative stall %d", p.ID, cycles))
	}
	p.Acct.Charge(cat, cycles)
	p.clock += cycles
}

// Interact synchronizes the processor with the engine's quantum: if the
// local clock has run ahead of the current quantum, the processor yields
// until the quantum catches up. Every externally visible operation calls
// this first, bounding observable reordering by one quantum (= the minimum
// network latency), the precision of the original Wind Tunnel simulation.
// Step processors cannot suspend mid-step: their step returns StepYield
// when the clock reaches the quantum end, and the engine redispatches them
// once the quantum catches up — the same run-ahead bound without a stack.
func (p *Proc) Interact() {
	for p.clock >= p.eng.qEnd {
		p.Yield()
	}
}

// StepInteract is the non-suspending Interact: it reports whether the
// local clock is still inside the current quantum. A step-form library
// operation calls it at each interaction point; on false the operation
// returns "not done" without mutating anything, the caller gives up the
// processor (a step returns StepYield, a coroutine driver calls Yield),
// and the engine redispatches it in the quantum containing its clock.
// Because the check-points belong to the one step-form body both processor
// forms run, the two forms charge every stall in the same quantum and
// produce bit-identical statistics at every quantum boundary.
func (p *Proc) StepInteract() bool { return p.clock < p.eng.qEnd }

// WakePending reports whether a wake is waiting to be consumed
// (via WakePayload/WakePayloadVals). Step-form operations use it to
// distinguish a fresh call from a reentry after StepBlock.
func (p *Proc) WakePending() bool { return p.wakeKind != wakeNone }

// WaitUntil advances the clock to t (if in the future), charging the wait to
// cat. It does not yield; use for known-length local waits.
func (p *Proc) WaitUntil(t Time, cat stats.Category) {
	if t > p.clock {
		p.ChargeStall(cat, t-p.clock)
	}
}

// StepBlock parks the processor without suspending the caller: a step must
// return StepYield immediately after calling it, a coroutine body must
// Yield, and either is next dispatched when a wake arrives (a parked
// coroutine and a parked step processor are the same engine state). The
// resumed caller consumes the wake with WakePayload or WakePayloadVals,
// which charge the stall from now until the wake time to cat; blocking
// again with a wake still pending panics.
func (p *Proc) StepBlock(cat stats.Category, reason string) {
	if p.wakeKind != wakeNone {
		panic(fmt.Sprintf("sim: proc %d re-blocked without consuming its wake (call WakePayload or WakePayloadVals first)", p.ID))
	}
	p.blocked = true
	p.blockReason = reason
	p.blockStart = p.clock
	p.blockCat = cat
}

// WakePayload consumes the Wake that resumed the processor after
// StepBlock: it charges the blocked stall and advances the clock to the
// wake time. Panics if no wake is pending or the waker used WakeVals — a
// wake must be consumed by the call that matches it (the stale-payload bug
// this replaces returned zeros silently).
func (p *Proc) WakePayload() { p.consumeWake(wakePlain) }

// WakePayloadVals is WakePayload for WakeVals, returning its two int64
// values.
func (p *Proc) WakePayloadVals() (int64, int64) {
	p.consumeWake(wakeVals)
	a, b := p.wakeA, p.wakeB
	p.wakeA, p.wakeB = 0, 0
	return a, b
}

// consumeWake is the one consumption path: it checks that the pending wake
// is of the kind the caller pairs with, then charges the blocked stall.
func (p *Proc) consumeWake(kind uint8) {
	if p.wakeKind != kind {
		switch p.wakeKind {
		case wakeVals:
			panic(fmt.Sprintf("sim: proc %d: WakePayload after WakeVals — pair WakePayload with Wake, or WakePayloadVals with WakeVals", p.ID))
		case wakePlain:
			panic(fmt.Sprintf("sim: proc %d: WakePayloadVals after Wake — pair WakePayload with Wake, or WakePayloadVals with WakeVals", p.ID))
		default:
			panic(fmt.Sprintf("sim: proc %d: no wake pending", p.ID))
		}
	}
	p.wakeKind = wakeNone
	if p.wakeAt > p.blockStart {
		p.Acct.Charge(p.blockCat, p.wakeAt-p.blockStart)
		p.clock = p.wakeAt
	}
}

// Wake unblocks a processor at absolute time at, to be consumed by its
// WakePayload call. Must be called from engine context — an event handler,
// never the processor phase (processor-context code that needs to wake a
// peer stages an event via Proc.Schedule that performs the wake). Waking
// an unblocked processor panics.
func (p *Proc) Wake(at Time) { p.wake(at, wakePlain, 0, 0) }

// WakeVals unblocks a processor at absolute time at, delivering two int64
// values to a matching WakePayloadVals call. Same engine-context
// restriction and semantics as Wake.
func (p *Proc) WakeVals(at Time, a, b int64) { p.wake(at, wakeVals, a, b) }

// wake is the one wake path; kind records which of Wake and WakeVals
// delivered it, for consumeWake to check.
func (p *Proc) wake(at Time, kind uint8, a, b int64) {
	if p.eng.inProcPhase {
		panic(fmt.Sprintf("sim: waking proc %d from processor context; stage the wake via Proc.Schedule", p.ID))
	}
	if !p.blocked {
		panic(fmt.Sprintf("sim: waking proc %d which is not blocked", p.ID))
	}
	if at < p.blockStart {
		at = p.blockStart
	}
	p.blocked = false
	p.blockReason = ""
	p.wakeAt = at
	p.wakeKind = kind
	p.wakeA, p.wakeB = a, b
	if p.clock < at {
		p.clock = at
	}
	p.eng.ready = append(p.eng.ready, p)
}

// Blocked reports whether the processor is blocked, and why.
func (p *Proc) Blocked() (bool, string) { return p.blocked, p.blockReason }

// PushMode switches the computation and miss accounting categories, e.g. on
// entry to message-passing library code (LibComp/LibMiss) or shared-memory
// synchronization code (SyncComp/SyncMiss). Paired with PopMode. Shared-miss
// and write-fault categories are unchanged; see PushModeFull.
func (p *Proc) PushMode(comp, miss stats.Category, cnt stats.Count) {
	p.PushModeFull(comp, miss, cnt, p.sharedCat, p.wfCat)
}

// PushModeFull additionally redirects shared-miss and write-fault stalls,
// used by shared-memory synchronization primitives so that coherence traffic
// they cause is charged to the synchronization categories (the paper's
// "Locks", "Sync Miss", and "Reductions" rows).
func (p *Proc) PushModeFull(comp, miss stats.Category, cnt stats.Count, shared, wf stats.Category) {
	p.modes = append(p.modes, mode{p.compCat, p.missCat, p.missCnt, p.sharedCat, p.wfCat})
	p.compCat, p.missCat, p.missCnt = comp, miss, cnt
	p.sharedCat, p.wfCat = shared, wf
}

// PopMode restores the accounting categories saved by the matching PushMode.
func (p *Proc) PopMode() {
	n := len(p.modes)
	if n == 0 {
		panic(fmt.Sprintf("sim: proc %d: PopMode without PushMode", p.ID))
	}
	m := p.modes[n-1]
	p.modes = p.modes[:n-1]
	p.compCat, p.missCat, p.missCnt = m.comp, m.miss, m.cnt
	p.sharedCat, p.wfCat = m.shared, m.wf
}

// SharedMissCategory returns the category for shared-data miss stalls.
func (p *Proc) SharedMissCategory() stats.Category { return p.sharedCat }

// WriteFaultCategory returns the category for write-fault stalls.
func (p *Proc) WriteFaultCategory() stats.Category { return p.wfCat }

// MissCategory returns the category to which cache-miss stalls should
// currently be charged, and the count to increment.
func (p *Proc) MissCategory() (stats.Category, stats.Count) {
	return p.missCat, p.missCnt
}
