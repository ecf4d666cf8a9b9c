// Package sim provides the deterministic discrete-event simulation engine
// underlying both simulated machines, in the style of the Wisconsin Wind
// Tunnel (Reinhardt et al., SIGMETRICS 1993).
//
// Target "processors" are Go functions executed as coroutines (or as
// stackless step functions; see Engine.AddStepProc). A coroutine is a
// runtime coroutine (iter.Pull): the dispatcher switches into the body and
// the body switches back when it yields, on one host thread, without the Go
// scheduler taking part. The engine interleaves
// processors within conservative time quanta equal to the minimum network
// latency (100 cycles): any event one processor causes at another is
// delayed by at least the network latency, so intra-quantum execution order
// cannot affect the simulation's outcome — the same lookahead argument WWT
// uses. The dispatcher is one loop on the engine's goroutine: each quantum
// it runs the event phase, then dispatches the quantum's processors in ID
// order. An event a processor raises is pushed as it is raised, so sequence
// numbers — and every same-time tie-break — follow (procID, raise order);
// events staged through a Stager follow all of them. A processor reads
// another node's state only as it stood at the last quantum boundary: a
// cross-node read of application data goes through memsim.BoundaryVec, and
// the one other publisher (Engine.AddPublisher) is am.Group's, exempt
// because it holds two scalars per member and runs only under a network
// fault plan. All time is virtual (cycles); wall-clock effects such as Go's
// garbage collector cannot perturb measurements.
package sim

import (
	"fmt"

	"repro/internal/stats"
)

// Time is virtual time in processor cycles.
type Time = int64

// Event is a timestamped action processed by the engine in (time, sequence)
// order. Handlers run outside any processor context; they typically deliver
// messages, run directory/cache controller work, and wake blocked
// processors. The body is an Action; hot paths use Actions backed by
// subsystem freelists so steady-state event traffic allocates nothing.
type Event struct {
	At  Time
	act Action

	seq   uint64
	qnext *Event // intrusive link while queued in a calendar bucket
}

// Action is a closure-free event body: a reusable, typically pooled object
// whose RunEvent method the engine invokes in the event phase. Subsystems
// that raise millions of events (packet delivery, directory transactions)
// implement Action on freelisted structs instead of capturing closures,
// which is what keeps the steady-state hot paths allocation-free. RunEvent
// runs in engine context; the receiving subsystem owns recycling (the
// engine never retains the Action after the call returns).
type Action interface {
	RunEvent(at Time)
}

// funcAction adapts a closure to Action for the Schedule entry points.
type funcAction func()

// RunEvent implements Action.
func (f funcAction) RunEvent(Time) { f() }

// Engine coordinates processors and events.
type Engine struct {
	Quantum Time // conservative lookahead; events cross processors no faster

	// Deprecated: ignored; dispatch is serial.
	Workers int

	now    Time // start of the current quantum
	qEnd   Time // end of the current quantum
	events bucketQueue
	seq    uint64

	// procs is every processor in ID order, and the processor phase scans
	// it: a processor runs in a quantum when it is neither done nor
	// blocked and its clock is below the quantum end. Wakes are illegal
	// while the scan runs, so no dispatch changes another processor's
	// eligibility and the scan needs no run queue.
	procs []*Proc

	finished    int  // processors that have retired
	inProcPhase bool // processor phase in flight: Schedule/Wake are off-limits

	stagers []*Stager // auxiliary staging contexts (barrier releases)

	free []*Event // recycled events, to keep event-heavy runs off the GC

	// MaxTime, when positive, bounds virtual time: exceeding it panics with
	// the processor states. It catches simulated livelock (time advancing
	// forever without progress) the way the deadlock detector catches
	// stalled time.
	MaxTime Time

	// aborted, when non-nil, is the structured error that ended the run
	// early (e.g. the reliable transport's retry budget was exhausted).
	// Remaining processors are unwound cleanly instead of deadlocking.
	aborted error

	// watchdogs are progress monitors checked each scheduling iteration;
	// see AddWatchdog. Empty unless a robustness layer armed one.
	watchdogs []*Watchdog

	// publishers run at the top of every scheduling iteration, before the
	// watchdog check and the hooks (see AddPublisher).
	publishers []func(now Time)

	// hooks run at the top of every scheduling iteration, when e.now is a
	// fresh quantum boundary and no processor is executing — the only
	// moment all serializable state is quiescent. The checkpoint layer
	// hangs off this; empty unless armed. Hooks must be pure observers
	// (plus Abort): mutating simulation state from a hook would diverge a
	// checkpointed run from an unobserved one.
	hooks []func(now Time)
}

// NewEngine returns an engine with the given quantum (use the network
// latency; 100 in the paper's machines).
func NewEngine(quantum Time) *Engine {
	if quantum <= 0 {
		panic("sim: quantum must be positive")
	}
	e := &Engine{Quantum: quantum}
	e.events.initBuckets(quantum)
	return e
}

// Now returns the start of the current quantum. Individual processors may
// have local clocks ahead of this.
func (e *Engine) Now() Time { return e.now }

// QuantumEnd returns the end of the current quantum; processors yield to the
// scheduler when their local clock reaches it.
func (e *Engine) QuantumEnd() Time { return e.qEnd }

// alloc returns a recycled (or fresh) event.
func (e *Engine) alloc(at Time, act Action, seq uint64) *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.At, ev.act, ev.seq = at, act, seq
		return ev
	}
	return &Event{At: at, act: act, seq: seq}
}

// release returns a popped event to the free list.
func (e *Engine) release(ev *Event) {
	ev.act = nil
	e.free = append(e.free, ev)
}

// run executes the event's body.
func (ev *Event) run() { ev.act.RunEvent(ev.At) }

// Schedule enqueues an event at absolute time at. Events scheduled for the
// past are processed at the start of the next quantum (their handlers must
// therefore tolerate lateness bounded by one quantum; per-object busy times
// preserve monotonicity).
//
// Schedule may only be called from engine context — event handlers, quantum
// hooks, or before Run. Processor-context code must use Proc.Schedule (or a
// Stager); calling Schedule from the processor phase panics.
func (e *Engine) Schedule(at Time, fn func()) {
	e.ScheduleAction(at, funcAction(fn))
}

// ScheduleAction is Schedule for a closure-free Action body. Same engine-
// context restriction; processor-context code uses Proc.ScheduleAction.
func (e *Engine) ScheduleAction(at Time, act Action) {
	if e.inProcPhase {
		panic("sim: Engine.ScheduleAction from processor context; use Proc.ScheduleAction")
	}
	e.push(at, act)
}

// push enqueues an event under the next sequence number.
func (e *Engine) push(at Time, act Action) {
	e.seq++
	e.events.push(e.alloc(at, act, e.seq))
}

// Stager is an auxiliary event-staging context for objects shared by many
// processors (the barrier): whichever processor stages through it, the
// staged events are enqueued at a fixed position — at the quantum boundary,
// after every event the quantum's processors raised, in Stager creation
// order — so sequence numbering never depends on which processor happened
// to act. At most one processor may stage through a given Stager per
// quantum (the barrier's completer; episodes cannot overlap).
type Stager struct {
	eng    *Engine
	staged []*Event // sequence numbers assigned at the boundary
}

// NewStager registers an auxiliary staging context.
func (e *Engine) NewStager() *Stager {
	s := &Stager{eng: e}
	e.stagers = append(e.stagers, s)
	return s
}

// Schedule stages an event for the quantum boundary.
func (s *Stager) Schedule(at Time, fn func()) {
	s.ScheduleAction(at, funcAction(fn))
}

// ScheduleAction stages a closure-free Action for the quantum boundary.
func (s *Stager) ScheduleAction(at Time, act Action) {
	s.staged = append(s.staged, s.eng.alloc(at, act, 0))
}

// newProc builds the registration-shared part of a processor.
func (e *Engine) newProc() *Proc {
	p := &Proc{
		ID:   len(e.procs),
		eng:  e,
		Acct: &stats.Acct{},
	}
	p.compCat = stats.Comp
	p.missCat = stats.LocalMiss
	p.missCnt = stats.CntLocalMisses
	p.sharedCat = stats.SharedMiss
	p.wfCat = stats.WriteFault
	e.procs = append(e.procs, p)
	return p
}

// AddProc registers a new coroutine processor whose body is fn. Must be
// called before Run. Processors are created with ID = registration order.
// A body ends by returning, Fail, or a panic; runtime.Goexit (and with it
// testing's FailNow) from inside one is not supported — it ends the
// coroutine without returning control to the dispatcher.
func (e *Engine) AddProc(fn func(p *Proc)) *Proc {
	p := e.newProc()
	p.body = fn
	return p
}

// AddStepProc registers a stackless processor: instead of a coroutine, step
// is invoked as a direct continuation call on every dispatch — one function
// call per quantum, no goroutine, no stack switch. The step runs until its
// clock reaches the quantum end (or it blocks via StepBlock) and returns
// StepYield, or retires with StepDone. Step processors cannot call the
// suspending primitives (Yield, Interact past the horizon); they are for
// programs structured as explicit state machines.
func (e *Engine) AddStepProc(step func(p *Proc) StepStatus) *Proc {
	p := e.newProc()
	p.step = step
	return p
}

// Procs returns the registered processors.
func (e *Engine) Procs() []*Proc { return e.procs }

// Run executes the simulation until every processor's body has returned and
// no events remain, returning nil. If a processor aborts the run (see
// Abort), the remaining processors are unwound and Run returns the abort
// error — a structured failure report instead of a deadlock panic. It still
// panics on true deadlock (all processors blocked with no pending events and
// no abort raised) with a description and diagnostics of each processor's
// state, a programmer error on a perfect network. A panic in a processor
// body is re-raised here, on the caller's goroutine, as a *ProcPanicError.
// However Run ends, every processor has been unwound first: no goroutine
// outlives it.
func (e *Engine) Run() error {
	err := e.run()
	if pp, ok := err.(*ProcPanicError); ok {
		panic(pp)
	}
	return err
}

func (e *Engine) run() error {
	for _, p := range e.procs {
		if p.step == nil {
			p.start()
		}
	}
	defer e.shutdown()
	for e.finished < len(e.procs) {
		if e.aborted != nil {
			return e.aborted
		}
		if e.MaxTime > 0 && e.now > e.MaxTime {
			e.overtime()
		}
		for _, pub := range e.publishers {
			pub(e.now)
		}
		if len(e.watchdogs) > 0 {
			e.checkWatchdogs()
			if e.aborted != nil {
				return e.aborted
			}
		}
		if len(e.hooks) > 0 {
			for _, h := range e.hooks {
				h(e.now)
			}
			if e.aborted != nil { // a hook stopped the run (e.g. -run-until)
				return e.aborted
			}
		}
		e.qEnd = e.now + e.Quantum

		// Event phase: handle everything due before the quantum ends, in
		// (At, seq) order.
		for {
			ev := e.events.popBelow(e.qEnd)
			if ev == nil {
				break
			}
			ev.run()
			e.release(ev)
		}

		// Processor phase.
		if e.runQuantum() {
			e.now = e.qEnd
			continue
		}

		// Advance. If the quantum was idle, jump to the next interesting
		// time instead of crawling quantum by quantum.
		if e.aborted != nil {
			// An event handler (e.g. a watchdog) aborted mid-quantum; let
			// the loop top return instead of misreporting a deadlock.
			continue
		}
		next := e.nextInteresting()
		if next < 0 {
			e.deadlock()
		}
		if next < e.qEnd {
			next = e.qEnd
		}
		// Align down to the quantum grid so event-phase windows stay stable.
		e.now = next - (next % e.Quantum)
	}
	// The last live processor may have been the one that aborted; its
	// retirement ends the loop without passing the check at the top.
	if e.aborted != nil {
		return e.aborted
	}
	// Drain any trailing events (e.g. in-flight acknowledgements) so event
	// conservation properties hold for tests.
	for e.events.len() > 0 {
		ev := e.events.popBelow(maxTime)
		e.now = ev.At
		ev.run()
		e.release(ev)
	}
	return nil
}

// runQuantum is the processor phase. It dispatches, in ID order on the
// engine's own goroutine, every processor that is neither done nor blocked
// and whose clock is below the quantum end, and counts the ones that
// retire. A coroutine proc costs one runtime coroutine switch in and one
// back, a step proc one function call. ID order reduces every
// deterministic tie-break to processor ID. The Stagers' events are then
// enqueued after everything the processors raised. It reports whether any
// processor ran.
func (e *Engine) runQuantum() (ran bool) {
	e.inProcPhase = true
	qEnd := e.qEnd
	for _, p := range e.procs {
		if p.done || p.blocked || p.clock >= qEnd {
			continue
		}
		ran = true
		p.dispatch()
		if p.done {
			e.finished++
		}
	}
	e.inProcPhase = false
	for _, s := range e.stagers {
		for i, ev := range s.staged {
			e.seq++
			ev.seq = e.seq
			e.events.push(ev)
			s.staged[i] = nil
		}
		s.staged = s.staged[:0]
	}
	return ran
}

// shutdown runs however Run ends, a panic included. Halting a live
// coroutine makes its pending yield report false, which unwinds the body
// through the procHalt panic; one that was never dispatched is discarded
// without running.
func (e *Engine) shutdown() {
	for _, p := range e.procs {
		if !p.done && p.halt != nil {
			p.halt()
		}
	}
}

// AddPublisher registers fn to run at the top of every scheduling iteration,
// before the watchdog check and the quantum hooks. A publisher copies live
// per-node values into a quantum-stable image that other processors read
// during the processor phase, so a read across nodes sees the boundary
// value whichever order the quantum's processors ran in: the conservative
// window leaves that order open. Unlike hooks, publishers are part of the
// simulation: they must be deterministic functions of the boundary state.
// The rule: a cross-node read of application data goes through
// memsim.BoundaryVec, the one publisher of app backing; am.Group's
// published transport counts are the one exemption (two scalars per
// member, only under a network fault plan).
func (e *Engine) AddPublisher(fn func(now Time)) {
	e.publishers = append(e.publishers, fn)
}

// AddQuantumHook registers fn to run at the top of every scheduling
// iteration with the current quantum-start time. Times are strictly
// increasing across calls. Hooks observe; the only mutation they may
// perform is Abort (how -run-until stops a run). They run after the
// publishers and watchdog check and before the event phase.
func (e *Engine) AddQuantumHook(fn func(now Time)) {
	e.hooks = append(e.hooks, fn)
}

// Abort requests that the run stop with err: at its next scheduling point
// Run unwinds every live processor and returns err. The first
// abort wins; later calls are ignored. Callable from an event handler or a
// quantum hook; processor bodies use Proc.Fail.
func (e *Engine) Abort(err error) {
	if e.aborted == nil {
		e.aborted = err
	}
}

// Aborted returns the error the run was aborted with, if any.
func (e *Engine) Aborted() error { return e.aborted }

// nextInteresting returns the earliest time at which anything can happen:
// the next event or the lowest clock of a processor that is neither done
// nor blocked. Returns -1 if nothing can ever happen again. Only idle
// quanta pay for its scan of every processor.
func (e *Engine) nextInteresting() Time {
	next := e.events.minAt()
	for _, p := range e.procs {
		if !p.done && !p.blocked && (next < 0 || p.clock < next) {
			next = p.clock
		}
	}
	return next
}

func (e *Engine) overtime() {
	panic(fmt.Sprintf("sim: exceeded MaxTime %d\n%s", e.MaxTime, e.procStates()))
}

func (e *Engine) deadlock() {
	panic("sim: deadlock — all processors blocked and no events pending\n" + e.procStates())
}

// procStates renders every processor's scheduling state plus any diagnostic
// its libraries registered (the progress watchdog's report: a starved node's
// transport diagnostic names the peer and oldest unacked sequence number).
func (e *Engine) procStates() string {
	msg := ""
	for _, p := range e.procs {
		msg += fmt.Sprintf("  proc %d: clock=%d done=%v blocked=%v reason=%q\n",
			p.ID, p.clock, p.done, p.blocked, p.blockReason)
		if p.diag != nil {
			if d := p.diag(); d != "" {
				msg += "    " + d + "\n"
			}
		}
	}
	return msg
}
