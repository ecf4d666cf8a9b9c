package coherence

import (
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The requester side of the protocol, written once, in non-suspending form.
// A false return means the requester blocked: the caller gives up the
// processor and re-invokes the same call with the same arguments, and the
// re-invocation that finds the grant's wake pending consumes it and
// completes (or, on a NACK, backs off and reissues). A step processor does
// that by returning sim.StepYield; the blocking forms (memsim's Read/Write
// over StepReadMiss/StepWriteAccess) are coroutine drivers,
// `for !m.StepFoo(...) { p.Yield() }`, so both processor forms bump the same
// counters and send the same messages at the same clocks.

// stepPend is a node's in-flight requester transaction: the state that must
// survive from the send to the wake that answers it. A processor is serial
// with one outstanding request, so one slot per node suffices.
type stepPend struct {
	home      int
	kind      reqKind
	block     uint64
	cat       stats.Category
	why       string
	retries   int
	backoff   int64
	firstSent sim.Time
}

// StepReadMiss implements memsim.SharedHandler: fetch a readable copy. The
// block is installed by the cache controller at reply-arrival time (in
// event context), so a subsequent recall or invalidation always observes
// the installed line; the processor is charged when it consumes the wake.
func (pr *Protocol) StepReadMiss(m *memsim.Mem, block uint64) bool {
	p := m.P
	if p.WakePending() {
		return pr.stepResume(m)
	}
	home := pr.homeOf(block)
	cat := p.SharedMissCategory()
	if home == p.ID {
		p.Acct.Add(stats.CntSharedMissLocal, 1)
	} else {
		p.Acct.Add(stats.CntSharedMissRemote, 1)
	}
	pr.Reads++
	p.ChargeStall(cat, pr.Cfg.SharedMissCycles)
	pr.stepIssue(m, home, reqGETS, block, cat, "shared read miss")
	return false
}

// StepWriteAccess implements memsim.SharedHandler: obtain a writable copy.
// resident == Shared is an upgrade — a write fault in the paper's terms;
// resident == Invalid is a write miss. On a resume the resident argument is
// ignored (the pending slot holds the request).
func (pr *Protocol) StepWriteAccess(m *memsim.Mem, block uint64, resident uint8) bool {
	p := m.P
	if p.WakePending() {
		return pr.stepResume(m)
	}
	home := pr.homeOf(block)
	var cat stats.Category
	var kind reqKind
	if resident == memsim.Shared {
		cat = p.WriteFaultCategory()
		p.Acct.Add(stats.CntWriteFaults, 1)
		kind = reqUPGRADE
		pr.Upgrades++
	} else {
		cat = p.SharedMissCategory()
		if home == p.ID {
			p.Acct.Add(stats.CntSharedMissLocal, 1)
		} else {
			p.Acct.Add(stats.CntSharedMissRemote, 1)
		}
		kind = reqGETX
		pr.Writes++
	}
	p.ChargeStall(cat, pr.Cfg.SharedMissCycles)
	pr.stepIssue(m, home, kind, block, cat, "shared write access")
	return false
}

// stepIssue records the transaction in the node's pending slot, sends the
// request to its home, and blocks the requester until the grant installs;
// stepResume charges the victim's replacement cost on the wake.
func (pr *Protocol) stepIssue(m *memsim.Mem, home int, kind reqKind, block uint64, cat stats.Category, why string) {
	p := m.P
	n := pr.nodes[p.ID]
	n.pend = stepPend{home: home, kind: kind, block: block,
		cat: cat, why: why, firstSent: p.Clock()}
	if pr.wd != nil {
		// The engine restarts the watchdog window itself when it observes
		// the quiet→active transition at a quantum boundary; the requester
		// only maintains the outstanding count the activity gate reads.
		pr.outstanding++
	}
	pr.stepSend(m)
	p.StepBlock(cat, why)
}

// stepSend emits the pending request toward its home: the message-count,
// forensics, and event-arrival bookkeeping of one send (first or retry).
func (pr *Protocol) stepSend(m *memsim.Mem) {
	p := m.P
	n := pr.nodes[p.ID]
	if pr.forensics {
		pr.note(p.ID, p.Clock(), "sent %v %#x to home %d", n.pend.kind, n.pend.block, n.pend.home)
	}
	pr.countMsg(p.ID, n.pend.home, false)
	arrive := p.Clock() + pr.latency(p.ID, n.pend.home)
	ev := pr.getEv()
	ev.kind, ev.home = evDirHandle, n.pend.home
	ev.r = request{kind: n.pend.kind, block: n.pend.block, reqID: p.ID, m: m}
	p.ScheduleAction(arrive, ev)
}

// stepResume consumes the wake that ended a pending transaction's block.
// A grant charges the replacement cost and completes. Under fault injection
// the home may NACK instead: the requester then backs off exponentially —
// charged to its own taxonomy row (stats.DirRetry), so degradation is
// visible as a separate cost, not smeared into miss time — and reissues
// (blocking again, with no interaction point before the retry send), up to
// the configured retry budget; exhausting it aborts the run with a
// structured starvation report instead of livelocking.
func (pr *Protocol) stepResume(m *memsim.Mem) bool {
	p := m.P
	n := pr.nodes[p.ID]
	pd := &n.pend
	repl, nacked := p.WakePayloadVals()
	if nacked == 0 {
		p.ChargeStall(pd.cat, repl)
		if pr.wd != nil {
			pr.outstanding--
		}
		return true
	}
	pd.retries++
	p.Acct.Add(stats.CntNACKs, 1)
	if pd.retries > pr.smf.RetryBudget {
		if pr.wd != nil {
			pr.outstanding--
		}
		p.Fail(&faults.RetryStarvationError{
			Node: p.ID, Home: pd.home, Block: pd.block, Kind: pd.kind.String(),
			Retries: pd.retries, FirstSent: pd.firstSent, Now: p.Clock(),
		})
	}
	if pd.backoff == 0 {
		pd.backoff = pr.smf.Backoff
	} else if pd.backoff < pr.smf.BackoffMax {
		pd.backoff *= 2
		if pd.backoff > pr.smf.BackoffMax {
			pd.backoff = pr.smf.BackoffMax
		}
	}
	p.Acct.Add(stats.CntDirRetries, 1)
	p.ChargeStall(stats.DirRetry, pr.Cfg.NACKRetryCycles+pd.backoff)
	pr.stepSend(m)
	p.StepBlock(pd.cat, pd.why)
	return false
}

// StepAtomicSwapI performs the machine's atomic swap instruction on an IVec
// element: it obtains exclusive ownership (stalling like a write) and
// exchanges the value, exactly once, on the completing call.
func (pr *Protocol) StepAtomicSwapI(m *memsim.Mem, vec *memsim.IVec, i int, newV int64) (int64, bool) {
	if !m.StepWrite(vec.Addr(i)) {
		return 0, false
	}
	old := vec.V[i]
	vec.V[i] = newV
	return old, true
}

// StepAtomicCASI is a compare-and-swap on an IVec element; swapped is valid
// only when done. The paper's machine provides only atomic swap; MCS release
// uses compare-and-swap in the original algorithm, and we model it with the
// same write-ownership cost as swap (see parmacs for discussion).
func (pr *Protocol) StepAtomicCASI(m *memsim.Mem, vec *memsim.IVec, i int, old, newV int64) (swapped, done bool) {
	if !m.StepWrite(vec.Addr(i)) {
		return false, false
	}
	if vec.V[i] != old {
		return false, true
	}
	vec.V[i] = newV
	return true, true
}

// SpinStep is the resumable state of one StepSpinI wait: whether
// the spinner went to sleep on an invalidation watch. Embed one in the
// caller's frame and zero it before a fresh spin.
type SpinStep struct {
	sleeping bool
}

// StepSpinI reads vec[i] through the cache until cond holds, sleeping on
// invalidation between polls; the wait is charged to cat. cond must be a
// fixed predicate (hoisted, not a per-call closure) for allocation-free
// spinning. The value that satisfied cond is valid only when done. A
// spinner may only sleep while it holds a valid copy; if an invalidation
// raced in before the watch could be armed, it re-reads immediately.
func (pr *Protocol) StepSpinI(ss *SpinStep, m *memsim.Mem, vec *memsim.IVec, i int, cat stats.Category, cond func(int64) bool) (int64, bool) {
	p := m.P
	if ss.sleeping {
		// Only a watcher wake redispatches a sleeping spinner.
		p.WakePayload()
		ss.sleeping = false
	}
	for {
		if !m.StepRead(vec.Addr(i)) {
			return 0, false
		}
		if v := vec.V[i]; cond(v) {
			return v, true
		}
		if pr.Watch(m, vec.Addr(i)) {
			p.StepBlock(cat, "spin")
			ss.sleeping = true
			return 0, false
		}
	}
}

// StepSpinIAtLeast is StepSpinI with the fixed predicate v >= min: the
// flag-threshold wait of reduction trees, closure-free so a bound round
// counter costs no allocation.
func (pr *Protocol) StepSpinIAtLeast(ss *SpinStep, m *memsim.Mem, vec *memsim.IVec, i int, cat stats.Category, min int64) (int64, bool) {
	p := m.P
	if ss.sleeping {
		p.WakePayload()
		ss.sleeping = false
	}
	for {
		if !m.StepRead(vec.Addr(i)) {
			return 0, false
		}
		if v := vec.V[i]; v >= min {
			return v, true
		}
		if pr.Watch(m, vec.Addr(i)) {
			p.StepBlock(cat, "spin")
			ss.sleeping = true
			return 0, false
		}
	}
}
