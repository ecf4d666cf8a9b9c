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
	// next block number to access. One cursor per Mem suffices for both
	// processor forms because a processor never starts a range walk inside
	// another: a private miss never polls the network, and
	// cmmd.StepChannelWriteF finishes its StepReadRange before it sends.
	stepRange   uint64
	stepRangeOn bool

	// memo holds the two most recently used clean walks, most recent
	// first: host-only knowledge that a block range is resident, so a
	// re-walk of it can skip its lookups. Never encoded — it changes no
	// simulated outcome, only how fast one is reached.
	memo [2]cleanWalk
}

// cleanWalk records a range walk that completed in one call with every
// block a cache hit and no TLB miss. While the cache's change counter and
// the TLB's miss count both still read what they read then, every block of
// the range is still resident in the state the walk saw and every page
// still translates: a fresh walk inside the range would hit throughout and
// charge nothing, so it can be settled by counting its references.
type cleanWalk struct {
	first, n  uint64 // block range [first, first+n); n == 0 is an empty entry
	modified  bool   // every block was Modified: a write walk may use it too
	changes   uint64
	tlbMisses int64
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
		return m.Shared.StepReadMiss(m, m.Cache.BlockOf(addr)), true
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
	return m.readMiss(addr, block), true
}

// readMiss finishes a fresh load that missed: a shared miss issues its
// request and blocks (false), a private one is serviced in place.
func (m *Mem) readMiss(addr, block uint64) bool {
	if m.Shared != nil && IsShared(addr) {
		m.Shared.StepReadMiss(m, block)
		return false
	}
	m.privateMiss(block)
	return true
}

// StepWrite is the non-suspending Write. After a grant the line is
// re-checked, and a stolen line re-acquires ownership (see Write).
func (m *Mem) StepWrite(addr uint64) bool {
	p := m.P
	block := m.Cache.BlockOf(addr)
	if p.WakePending() {
		return m.resumeWrite(addr, block)
	}
	if !p.StepInteract() {
		return false
	}
	m.Refs++
	m.translate(addr)
	if st := m.Cache.Lookup(block); st != Modified {
		return m.writeMiss(addr, block, st)
	}
	return true
}

// writeMiss finishes a store whose line is not held Modified (st is its
// resident state): shared data issues an upgrade or write miss and blocks,
// private data is serviced in place.
func (m *Mem) writeMiss(addr, block uint64, st uint8) bool {
	if m.Shared != nil && IsShared(addr) {
		m.Shared.StepWriteAccess(m, block, st)
		return false
	}
	m.privateMiss(block)
	return true
}

// resumeWrite resumes the write transaction a store issued, then verifies
// that ownership survived until retirement.
func (m *Mem) resumeWrite(addr, block uint64) bool {
	if !m.Shared.StepWriteAccess(m, block, Invalid) {
		return false
	}
	if st := m.Cache.Lookup(block); st != Modified {
		return m.writeMiss(addr, block, st)
	}
	return true
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

// stepRangeWalk performs one StepRead or StepWrite per block of [addr,
// addr+bytes), in order and with the same checks and charges, but inline:
// the TLB is consulted once per page per call (it changes only on a miss,
// and only this processor touches it), and only a block that does not hit,
// or an access resuming a blocked transaction, leaves the loop for a miss
// path. A fresh walk that is not inside the quantum returns "not done"
// without starting, so its re-call is fresh again; a fresh walk covered by
// a still-valid clean walk (see cleanWalk) only counts its references.
func (m *Mem) stepRangeWalk(addr uint64, bytes int, write bool) bool {
	if bytes <= 0 {
		return true
	}
	p, c := m.P, m.Cache
	shift := c.blockShift
	first, last := addr>>shift, (addr+uint64(bytes)-1)>>shift
	fresh := !m.stepRangeOn
	if fresh {
		if !p.WakePending() {
			if !p.StepInteract() {
				return false
			}
			if m.memoHit(first, last, write) {
				return true
			}
		}
		m.stepRangeOn = true
		m.stepRange = first
	}
	clean, modified := fresh, true
	tlbMisses := m.TLB.misses
	pageShift := m.TLB.pageShift - shift
	page := ^uint64(0) // no page translated yet in this call
	for block := m.stepRange; block <= last; block++ {
		if p.WakePending() {
			clean = false
			var done bool
			if write {
				done = m.resumeWrite(block<<shift, block)
			} else {
				done = m.Shared.StepReadMiss(m, block)
			}
			if !done {
				m.stepRange = block
				return false
			}
			continue
		}
		if !p.StepInteract() {
			m.stepRange = block
			return false
		}
		m.Refs++
		if pg := block >> pageShift; pg != page {
			m.translate(block << shift)
			page = pg
		}
		st := c.Lookup(block)
		if st == Modified || st == Shared && !write {
			modified = modified && st == Modified
			continue
		}
		clean = false
		var done bool
		if write {
			done = m.writeMiss(block<<shift, block, st)
		} else {
			done = m.readMiss(block<<shift, block)
		}
		if !done {
			m.stepRange = block
			return false
		}
	}
	m.stepRangeOn = false
	if clean && m.TLB.misses == tlbMisses {
		m.remember(cleanWalk{first: first, n: last - first + 1, modified: modified,
			changes: c.changes, tlbMisses: tlbMisses})
	}
	return true
}

// memoHit settles a fresh walk of blocks [first, last] from the memo when
// an entry still vouches for the whole range (all Modified, for a write):
// the walk would hit in the TLB and cache throughout and charge nothing,
// so only its references are counted. The entry used moves to the front.
func (m *Mem) memoHit(first, last uint64, write bool) bool {
	for i := range m.memo {
		e := &m.memo[i]
		if first >= e.first && last < e.first+e.n && (e.modified || !write) &&
			e.changes == m.Cache.changes && e.tlbMisses == m.TLB.misses {
			if i > 0 {
				m.memo[0], m.memo[i] = m.memo[i], m.memo[0]
			}
			m.Refs += int64(last - first + 1)
			return true
		}
	}
	return false
}

// remember puts a clean walk at the front of the memo; it replaces the
// front entry outright when that covers the same range.
func (m *Mem) remember(w cleanWalk) {
	if m.memo[0].first != w.first || m.memo[0].n != w.n {
		m.memo[1] = m.memo[0]
	}
	m.memo[0] = w
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
