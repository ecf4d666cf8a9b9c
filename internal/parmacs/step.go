package parmacs

import (
	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The parmacs primitives, written once as phase machines that never suspend
// the caller. The caller embeds the frame struct and, on a false ("not
// done") return, gives up the processor and re-invokes the same call with
// the same arguments — a step processor by returning sim.StepYield, the
// blocking forms in parmacs.go as coroutine drivers,
// `for !x.StepFoo(&frame, ...) { p.Yield() }`. The primitive pushes its
// accounting mode in phase 0 and pops it on completion; the push survives
// yields on the processor's own mode stack, so drivers must not push again.

// StepWaitCreate is the non-suspending WaitCreate.
func (rt *Runtime) StepWaitCreate(p *sim.Proc) bool {
	if p.ID == 0 {
		return true
	}
	if p.WakePending() {
		p.WakePayload()
		return true
	}
	if rt.created {
		p.WaitUntil(rt.createTime, stats.StartupWait)
		return true
	}
	rt.startWait = append(rt.startWait, p)
	p.StepBlock(stats.StartupWait, "waiting for create()")
	return false
}

// StepBarrier is the non-suspending Barrier.
func (rt *Runtime) StepBarrier(p *sim.Proc) bool {
	return rt.Bar.StepWait(p, stats.BarrierWait)
}

// Fixed spin predicates, package-level so spinning allocates nothing.
func lockFreeCond(v int64) bool { return v == 0 }
func linkDoneCond(v int64) bool { return v >= 0 }

// LockStep is the resumable state of one StepAcquire or StepRelease. Zero
// it (or let completion zero it) before a fresh operation.
type LockStep struct {
	phase uint8
	pred  int64
	succ  int64
	spin  coherence.SpinStep
}

// StepAcquire is the non-suspending Acquire.
func (l *Lock) StepAcquire(ls *LockStep, m *memsim.Mem) bool {
	p := m.P
	me := p.ID
	for {
		switch ls.phase {
		case 0:
			p.PushModeFull(stats.LockWait, stats.LockWait, stats.CntPrivateMisses,
				stats.LockWait, stats.LockWait)
			p.Compute(lockOpCycles)
			ls.phase = 1
		case 1:
			if next := l.nextCell(me); !next.StepSet(m, 0, -1) {
				return false
			}
			ls.phase = 2
		case 2:
			pred, done := l.rt.Pr.StepAtomicSwapI(m, &l.tail, 0, int64(me))
			if !done {
				return false
			}
			if pred < 0 { // lock was free
				p.PopMode()
				*ls = LockStep{}
				return true
			}
			ls.pred = pred
			ls.phase = 3
		case 3:
			if locked := l.lockedCell(me); !locked.StepSet(m, 0, 1) {
				return false
			}
			ls.phase = 4
		case 4:
			if next := l.nextCell(int(ls.pred)); !next.StepSet(m, 0, int64(me)) {
				return false
			}
			ls.spin = coherence.SpinStep{}
			ls.phase = 5
		case 5:
			locked := l.lockedCell(me)
			if _, done := l.rt.Pr.StepSpinI(&ls.spin, m, &locked, 0,
				stats.LockWait, lockFreeCond); !done {
				return false
			}
			p.PopMode()
			*ls = LockStep{}
			return true
		}
	}
}

// StepRelease is the non-suspending Release.
func (l *Lock) StepRelease(ls *LockStep, m *memsim.Mem) bool {
	p := m.P
	me := p.ID
	for {
		switch ls.phase {
		case 0:
			p.PushModeFull(stats.LockWait, stats.LockWait, stats.CntPrivateMisses,
				stats.LockWait, stats.LockWait)
			p.Compute(lockOpCycles)
			ls.phase = 1
		case 1:
			next := l.nextCell(me)
			nx, done := next.StepGet(m, 0)
			if !done {
				return false
			}
			if nx >= 0 { // successor already linked
				ls.phase = 4
			} else {
				ls.phase = 2
			}
		case 2:
			swapped, done := l.rt.Pr.StepAtomicCASI(m, &l.tail, 0, int64(me), -1)
			if !done {
				return false
			}
			if swapped { // no successor; lock is free
				p.PopMode()
				*ls = LockStep{}
				return true
			}
			ls.spin = coherence.SpinStep{}
			ls.phase = 3
		case 3:
			next := l.nextCell(me)
			if _, done := l.rt.Pr.StepSpinI(&ls.spin, m, &next, 0,
				stats.LockWait, linkDoneCond); !done {
				return false
			}
			ls.phase = 4
		case 4:
			next := l.nextCell(me)
			succ, done := next.StepGet(m, 0)
			if !done {
				return false
			}
			ls.succ = succ
			ls.phase = 5
		case 5:
			if locked := l.lockedCell(int(ls.succ)); !locked.StepSet(m, 0, 0) {
				return false
			}
			p.PopMode()
			*ls = LockStep{}
			return true
		}
	}
}

// RedStep is the resumable state of one StepReduce.
type RedStep struct {
	phase uint8
	child int
	round int64
	val   float64
	idx   int64
	cv    float64
	spin  coherence.SpinStep
}

// StepReduce is the non-suspending Reduce. The contributed (val, idx) are
// latched on the first call; re-invocations may pass anything. The result
// is valid only when done.
func (r *Reduction) StepReduce(rs *RedStep, m *memsim.Mem, val float64, idx int64, op Op, cats Cats) (float64, int64, bool) {
	p := m.P
	me := p.ID
	for {
		switch rs.phase {
		case 0:
			op.Check(p)
			p.PushModeFull(cats.Comp, cats.Miss, stats.CntPrivateMisses, cats.Miss, cats.Miss)
			rs.val, rs.idx = val, idx
			p.Compute(reduceOpCycles)
			if r.rt.Cfg.HWCombining {
				rs.phase = 7
				continue
			}
			r.round[me]++
			rs.round = r.round[me]
			rs.child = 0
			rs.spin = coherence.SpinStep{}
			rs.phase = 1
		case 1: // wait for child rs.child's contribution flag
			child := me*r.arity + 1 + rs.child
			if rs.child >= r.arity || child >= r.rt.Cfg.Procs {
				rs.phase = 4
				continue
			}
			if _, done := r.rt.Pr.StepSpinIAtLeast(&rs.spin, m, &r.flags[me],
				rs.child, cats.Wait, rs.round); !done {
				return 0, 0, false
			}
			rs.phase = 2
		case 2:
			cv, done := r.vals[me*r.arity+1+rs.child].StepGet(m, 0)
			if !done {
				return 0, 0, false
			}
			rs.cv = cv
			rs.phase = 3
		case 3:
			ci, done := r.idxs[me*r.arity+1+rs.child].StepGet(m, 0)
			if !done {
				return 0, 0, false
			}
			rs.val, rs.idx = op.Combine(rs.val, rs.idx, rs.cv, ci)
			p.Compute(reduceOpCycles)
			rs.child++
			rs.spin = coherence.SpinStep{}
			rs.phase = 1
		case 4:
			if me == 0 {
				p.PopMode()
				v, i := rs.val, rs.idx
				*rs = RedStep{}
				return v, i, true
			}
			if !r.vals[me].StepSet(m, 0, rs.val) {
				return 0, 0, false
			}
			rs.phase = 5
		case 5:
			if !r.idxs[me].StepSet(m, 0, rs.idx) {
				return 0, 0, false
			}
			rs.phase = 6
		case 6:
			parent := (me - 1) / r.arity
			slot := (me - 1) % r.arity
			if !r.flags[parent].StepSet(m, slot, rs.round) {
				return 0, 0, false
			}
			p.PopMode()
			*rs = RedStep{}
			return 0, 0, true
		case 7:
			// Hardware-combining ablation: one deposit instruction at the
			// network port, then the combined result arrives a fixed latency
			// after the last contributor — no flag spinning, no remote-homed
			// value traffic, no tree ascent. Result at node 0 only, zeros
			// elsewhere, preserving the software contract.
			v, i, done := r.rt.Bar.StepCombine(p, cats.Wait, op, rs.val, rs.idx)
			if !done {
				return 0, 0, false
			}
			p.PopMode()
			*rs = RedStep{}
			if me != 0 {
				return 0, 0, true
			}
			return v, i, true
		}
	}
}
