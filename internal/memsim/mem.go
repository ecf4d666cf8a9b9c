package memsim

import (
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SharedHandler is implemented by the shared-memory machine's coherence
// layer. Mem routes every access to a shared-segment address that cannot be
// satisfied by the local cache through this interface. Handlers manipulate
// the cache themselves (insertion, state changes, victim handling) and
// charge/stall the processor per the protocol.
//
// The two miss methods begin or resume a transaction without suspending the
// caller. A false return means the requesting processor blocked (a step
// returns sim.StepYield, a coroutine driver yields); the re-invocation that
// finds a wake pending consumes it and finishes the transaction.
type SharedHandler interface {
	// StepReadMiss begins/resumes obtaining a readable copy of block for
	// m's processor.
	StepReadMiss(m *Mem, block uint64) bool
	// StepWriteAccess begins/resumes obtaining a writable copy. resident is
	// the block's current local state: Shared means an upgrade (a write
	// fault in the paper's terms), Invalid a full write miss.
	StepWriteAccess(m *Mem, block uint64, resident uint8) bool
	// Evict performs replacement bookkeeping when a shared block is chosen
	// as a victim (writeback of dirty data, replacement cost). The
	// replacement cycles are charged to cat, the category of the miss that
	// forced the eviction.
	Evict(m *Mem, victim Line, cat stats.Category)
	// Flush performs an explicit software flush of a shared line: unlike a
	// silent capacity eviction, it sends the directory a replacement hint
	// so the line leaves the copyset (the paper's §5.3.4 optimization —
	// one message instead of a later invalidation round trip).
	Flush(m *Mem, victim Line, cat stats.Category)
}

// Mem is one processor's memory-system front end: TLB + cache + (on the
// shared-memory machine) the coherence handler. Cache hits are free —
// instruction time lives in the applications' calibrated computation
// constants — so only misses, write faults, and TLB refills charge cycles,
// mirroring the paper's accounting.
type Mem struct {
	P      *sim.Proc
	Cfg    *cost.Config
	Cache  *Cache
	TLB    *TLB
	Shared SharedHandler // nil on the message-passing machine

	// Refs counts simulated references (reads+writes), for tests.
	Refs int64

	// stepRange is the resumable cursor of an in-progress range walk: the
	// next block address to access. One cursor per Mem suffices for both
	// processor forms because a processor never starts a range walk inside
	// another: a private miss never polls the network, and
	// cmmd.StepChannelWriteF finishes its StepReadRange before it sends.
	stepRange   uint64
	stepRangeOn bool
}

// NewMem builds the memory system for proc p. rngSeed feeds the cache's
// random-replacement generator.
func NewMem(p *sim.Proc, cfg *cost.Config, rngSeed uint64) *Mem {
	return &Mem{
		P:     p,
		Cfg:   cfg,
		Cache: NewCache(cfg.CacheBytes, cfg.CacheAssoc, cfg.BlockBytes, sim.NewRNG(rngSeed)),
		TLB:   NewTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

func (m *Mem) translate(addr uint64) {
	if !m.TLB.Access(addr) {
		m.P.ChargeStall(stats.TLBMiss, m.Cfg.TLBMissCycles)
		m.P.Acct.Add(stats.CntTLBMisses, 1)
	}
}

// Access forms. Each operation is implemented once, as a Step form that
// never suspends the caller: a false return means "not done, nothing further
// mutated", and the caller gives up the processor and re-invokes the same
// call with the same arguments when redispatched. A step processor does
// that by returning sim.StepYield; the blocking forms are the coroutine
// drivers, `for !m.StepFoo(...) { m.P.Yield() }`. Both processor forms thus
// run the same StepInteract checks and charges at the same clocks.

// Read simulates a load from addr.
func (m *Mem) Read(addr uint64) {
	for !m.StepRead(addr) {
		m.P.Yield()
	}
}

// Write simulates a store to addr. A store to shared data retires only
// while the line is held Modified: if ownership is stolen (a downgrade or
// invalidation racing in) between the grant and the processor resuming, the
// store re-acquires ownership — the retry sequentially consistent hardware
// performs.
func (m *Mem) Write(addr uint64) {
	for !m.StepWrite(addr) {
		m.P.Yield()
	}
}

// privateMiss services a miss to private/local data: Table 1's 11 cycles +
// DRAM + replacement cost if a block is replaced. Private lines are
// inserted Modified (writable; dirtiness does not change private
// replacement cost on either machine).
func (m *Mem) privateMiss(block uint64) {
	cat, cnt := m.P.MissCategory()
	cost := m.Cfg.PrivateMissCycles + m.Cfg.DRAMCycles
	victim := m.Cache.Insert(block, Modified)
	if victim.State != Invalid {
		if m.Shared != nil && IsShared(victim.Tag<<m.Cache.BlockShift()) {
			m.Shared.Evict(m, victim, cat)
		} else {
			cost += m.privReplCost()
		}
	}
	m.P.ChargeStall(cat, cost)
	m.P.Acct.Add(cnt, 1)
}

func (m *Mem) privReplCost() int64 {
	if m.Shared != nil {
		return m.Cfg.ReplPrivate
	}
	return m.Cfg.MPReplacement
}

// ReadRange simulates streaming loads over [addr, addr+bytes). One access
// per cache block is simulated — exact for timing, since within-block hits
// are free.
func (m *Mem) ReadRange(addr uint64, bytes int) {
	for !m.StepReadRange(addr, bytes) {
		m.P.Yield()
	}
}

// WriteRange simulates streaming stores over [addr, addr+bytes).
func (m *Mem) WriteRange(addr uint64, bytes int) {
	for !m.StepWriteRange(addr, bytes) {
		m.P.Yield()
	}
}

// StepRead is the non-suspending Read.
func (m *Mem) StepRead(addr uint64) bool {
	done, _ := m.StepReadTrack(addr)
	return done
}

// StepReadTrack simulates a load: done reports whether the access
// completed, and missed (valid only when done) whether it missed in the
// cache — staleness-aware data structures use this to refresh their block
// snapshot exactly when real hardware would observe new values. A resumed
// access always reports missed — only a shared miss blocks.
func (m *Mem) StepReadTrack(addr uint64) (done, missed bool) {
	p := m.P
	if p.WakePending() {
		// Resuming the shared-miss transaction this access issued.
		if !m.Shared.StepReadMiss(m, m.Cache.BlockOf(addr)) {
			return false, true
		}
		return true, true
	}
	if !p.StepInteract() {
		return false, false
	}
	m.Refs++
	m.translate(addr)
	block := m.Cache.BlockOf(addr)
	if m.Cache.Lookup(block) != Invalid {
		return true, false // hit
	}
	if m.Shared != nil && IsShared(addr) {
		m.Shared.StepReadMiss(m, block) // issues and blocks
		return false, true
	}
	m.privateMiss(block)
	return true, true
}

// StepWrite is the non-suspending Write. After a grant the line is
// re-checked, and a stolen line re-acquires ownership (see Write).
func (m *Mem) StepWrite(addr uint64) bool {
	p := m.P
	block := m.Cache.BlockOf(addr)
	if p.WakePending() {
		if !m.Shared.StepWriteAccess(m, block, Invalid) {
			return false
		}
		// Grant installed; verify ownership survived until retirement.
	} else {
		if !p.StepInteract() {
			return false
		}
		m.Refs++
		m.translate(addr)
	}
	for {
		st := m.Cache.Lookup(block)
		if st == Modified {
			return true
		}
		if m.Shared != nil && IsShared(addr) {
			m.Shared.StepWriteAccess(m, block, st) // issues and blocks
			return false
		}
		m.privateMiss(block)
		return true
	}
}

// StepReadRange is the non-suspending ReadRange: the block cursor is held
// in the Mem, so a blocked access resumes mid-range.
func (m *Mem) StepReadRange(addr uint64, bytes int) bool {
	return m.stepRangeWalk(addr, bytes, false)
}

// StepWriteRange is the non-suspending WriteRange.
func (m *Mem) StepWriteRange(addr uint64, bytes int) bool {
	return m.stepRangeWalk(addr, bytes, true)
}

func (m *Mem) stepRangeWalk(addr uint64, bytes int, write bool) bool {
	if bytes <= 0 {
		return true
	}
	bs := uint64(m.Cfg.BlockBytes)
	end := addr + uint64(bytes)
	if !m.stepRangeOn {
		m.stepRangeOn = true
		m.stepRange = addr &^ (bs - 1)
	}
	for m.stepRange < end {
		if write {
			if !m.StepWrite(m.stepRange) {
				return false
			}
		} else {
			if !m.StepRead(m.stepRange) {
				return false
			}
		}
		m.stepRange += bs
	}
	m.stepRangeOn = false
	return true
}

// StepFlushBlock removes a block containing addr from the cache (the
// software flush optimization discussed in the paper's EM3D section). Dirty
// shared victims write back through the coherence handler. Flushes never
// block (dirty writebacks travel as staged events), so the only point it can
// report "not done" is the entry StepInteract.
func (m *Mem) StepFlushBlock(addr uint64) bool {
	if !m.P.StepInteract() {
		return false
	}
	block := m.Cache.BlockOf(addr)
	st := m.Cache.Lookup(block)
	if st == Invalid {
		return true
	}
	line := Line{Tag: block, State: st}
	m.Cache.Invalidate(block)
	if m.Shared != nil && IsShared(addr) {
		cat, _ := m.P.MissCategory()
		m.Shared.Flush(m, line, cat)
	}
	return true
}
