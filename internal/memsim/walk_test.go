package memsim

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// oracleWalk is the range walk the inline walk replaced: one StepRead or
// StepWrite per block, with its cursor held here instead of in the Mem. It
// is the reference TestRangeWalkMatchesPerBlockOracle checks the inline
// walk and its clean-walk memo against.
type oracleWalk struct {
	on   bool
	next uint64
}

func (o *oracleWalk) step(m *Mem, addr uint64, bytes int, write bool) bool {
	if bytes <= 0 {
		return true
	}
	bs := uint64(m.Cfg.BlockBytes)
	end := addr + uint64(bytes)
	if !o.on {
		o.on = true
		o.next = addr &^ (bs - 1)
	}
	for o.next < end {
		var done bool
		if write {
			done = m.StepWrite(o.next)
		} else {
			done = m.StepRead(o.next)
		}
		if !done {
			return false
		}
		o.next += bs
	}
	o.on = false
	return true
}

// fakeShared is a SharedHandler without a directory: a miss charges a few
// cycles, blocks, and is granted by an event 100-299 cycles later that
// installs the line. A quarter of the write grants are downgraded to Shared
// in the same event, so the resumed store finds its line stolen and issues
// again. Its draws come from its own RNG, so two handlers seeded alike
// behave alike for as long as their Mems are asked the same things.
type fakeShared struct{ rng *sim.RNG }

func (f *fakeShared) StepReadMiss(m *Mem, block uint64) bool {
	return f.access(m, block, Shared, m.P.SharedMissCategory())
}

func (f *fakeShared) StepWriteAccess(m *Mem, block uint64, resident uint8) bool {
	cat := m.P.SharedMissCategory()
	if resident == Shared {
		cat = m.P.WriteFaultCategory()
	}
	return f.access(m, block, Modified, cat)
}

func (f *fakeShared) access(m *Mem, block uint64, st uint8, cat stats.Category) bool {
	p := m.P
	if p.WakePending() {
		p.WakePayload()
		return true
	}
	p.ChargeStall(cat, 3)
	p.StepBlock(cat, "fake shared miss")
	at := p.Clock() + sim.Time(100+f.rng.Intn(200))
	steal := st == Modified && f.rng.Intn(4) == 0
	p.Schedule(at, func() {
		c := m.Cache
		if cur := c.Lookup(block); cur == Invalid {
			c.Insert(block, st)
		} else if cur != st {
			c.SetState(block, st)
		}
		if steal {
			c.SetState(block, Shared)
		}
		p.Wake(at)
	})
	return false
}

func (f *fakeShared) Evict(m *Mem, victim Line, cat stats.Category) {
	m.P.ChargeStall(cat, 1+int64(victim.State))
}

func (f *fakeShared) Flush(m *Mem, victim Line, cat stats.Category) {}

// Operation kinds of the differential test.
const (
	opWalk = iota
	opAccess
	opCompute
	opTLBEvict
	opInsert
	opInvalidate
	opSetState
)

type walkOp struct {
	kind  int
	write bool
	addr  uint64
	bytes int
	n     int64 // opCompute: cycles; opTLBEvict: pages; opInsert: state choice
}

func (o walkOp) String() string {
	names := [...]string{"walk", "access", "compute", "tlb-evict", "insert", "invalidate", "setstate"}
	return fmt.Sprintf("%s write=%v addr=%#x bytes=%d n=%d", names[o.kind], o.write, o.addr, o.bytes, o.n)
}

// walkRec is the state after one call: what it returned and every byte of
// simulated state the walk can touch.
type walkRec struct {
	op, call int
	done     bool
	clock    sim.Time
	refs     int64
	acct     uint64 // hash of the Acct encoding
	mem      uint64 // hash of the Cache and TLB encodings
}

func recordCall(m *Mem, op, call int, done bool) walkRec {
	var a, c snapshot.Enc
	m.P.Acct.EncodeState(&a)
	m.Cache.EncodeState(&c)
	m.TLB.EncodeState(&c)
	return walkRec{op: op, call: call, done: done, clock: m.P.Clock(), refs: m.Refs,
		acct: snapshot.Hash(a.Bytes()), mem: snapshot.Hash(c.Bytes())}
}

// walkTestConfig shrinks the hierarchy so that a few pages of data meet
// every case: 8 KB of 4-way cache, a 4-entry TLB and 1 KB pages, so walks
// cross pages, the TLB evicts and the cache replaces.
func walkTestConfig() cost.Config {
	cfg := cost.Default(2)
	cfg.CacheBytes = 8 << 10
	cfg.TLBEntries = 4
	cfg.PageBytes = 1 << 10
	return cfg
}

// genWalkOps draws a random operation list over a private and a shared
// region of four pages each. Half the walks repeat or shrink one of the
// last four ranges, and most cache edits aim at a block of one, so a
// remembered range is often re-walked after an edit that must end it.
func genWalkOps(seed uint64, n int, priv, shared, pageBytes uint64) []walkOp {
	rng := sim.NewRNG(seed)
	region := 4 * pageBytes
	var hist [4]walkOp
	nh := 0
	randRange := func() (uint64, int) {
		base := priv
		if rng.Intn(2) == 0 {
			base = shared
		}
		off := uint64(rng.Intn(int(region)))
		bytes := 1 + rng.Intn(int(region-off))
		if bytes > int(2*pageBytes) {
			bytes = 1 + rng.Intn(int(2*pageBytes))
		}
		return base + off, bytes
	}
	pickAddr := func() uint64 {
		if nh > 0 && rng.Intn(4) != 0 {
			h := hist[rng.Intn(min(nh, len(hist)))]
			return h.addr + uint64(rng.Intn(h.bytes))
		}
		a, _ := randRange()
		return a
	}
	ops := make([]walkOp, n)
	for i := range ops {
		o := &ops[i]
		switch r := rng.Intn(100); {
		case r < 45:
			o.kind, o.write = opWalk, rng.Intn(2) == 0
			if nh > 0 && rng.Intn(2) == 0 {
				h := hist[rng.Intn(min(nh, len(hist)))]
				o.addr, o.bytes = h.addr, h.bytes
				if rng.Intn(3) == 0 { // a sub-range
					cut := uint64(rng.Intn(h.bytes))
					o.addr += cut
					o.bytes = 1 + rng.Intn(h.bytes-int(cut))
				}
			} else {
				o.addr, o.bytes = randRange()
			}
			hist[nh%len(hist)] = *o
			nh++
		case r < 55:
			o.kind, o.write, o.addr = opAccess, rng.Intn(2) == 0, pickAddr()
		case r < 70:
			o.kind, o.n = opCompute, int64(rng.Intn(161))
		case r < 77:
			o.kind, o.n = opTLBEvict, int64(1+rng.Intn(4))
		case r < 84:
			o.kind, o.addr, o.n = opInsert, pickAddr(), int64(rng.Intn(2))
		case r < 92:
			o.kind, o.addr = opInvalidate, pickAddr()
		default:
			o.kind, o.addr = opSetState, pickAddr()
		}
	}
	return ops
}

// runWalkOps applies ops to m, calling each walk or access until it is
// done (yielding between calls, as a coroutine driver does), and records
// the state after every call. memoHits counts the fresh walks that an
// entry of the memo vouched for when they were called.
func runWalkOps(p *sim.Proc, m *Mem, ops []walkOp, walk func(addr uint64, bytes int, write bool) bool, far uint64) (recs []walkRec, memoHits int) {
	for i, o := range ops {
		call := func(f func() bool) {
			for c := 0; ; c++ {
				done := f()
				recs = append(recs, recordCall(m, i, c, done))
				if done {
					return
				}
				p.Yield()
			}
		}
		block := m.Cache.BlockOf(o.addr)
		switch o.kind {
		case opWalk:
			if walkCovered(m, o) {
				memoHits++
			}
			call(func() bool { return walk(o.addr, o.bytes, o.write) })
		case opAccess:
			if o.write {
				call(func() bool { return m.StepWrite(o.addr) })
			} else {
				call(func() bool { return m.StepRead(o.addr) })
			}
		case opCompute:
			p.Compute(o.n)
		case opTLBEvict:
			for k := int64(0); k < o.n; k++ {
				m.TLB.Access(far + uint64(i*4+int(k))*uint64(m.Cfg.PageBytes))
			}
		case opInsert:
			if m.Cache.Lookup(block) == Invalid {
				st := uint8(Modified)
				if IsShared(o.addr) && o.n == 0 {
					st = Shared
				}
				m.Cache.Insert(block, st)
			}
		case opInvalidate:
			m.Cache.Invalidate(block)
		case opSetState:
			// Private lines are always Modified; shared ones go both ways.
			switch st := m.Cache.Lookup(block); {
			case !IsShared(o.addr) || st == Invalid:
			case st == Modified:
				m.Cache.SetState(block, Shared)
			default:
				m.Cache.SetState(block, Modified)
			}
		}
		if o.kind != opWalk && o.kind != opAccess {
			recs = append(recs, recordCall(m, i, 0, true))
		}
	}
	return recs, memoHits
}

// walkCovered reports whether a fresh call of walk o would be settled by
// the memo: the walk's own entry conditions, restated so the test can tell
// that it exercised them.
func walkCovered(m *Mem, o walkOp) bool {
	if m.stepRangeOn || m.P.WakePending() || !m.P.StepInteract() {
		return false
	}
	first, last := m.Cache.BlockOf(o.addr), m.Cache.BlockOf(o.addr+uint64(o.bytes)-1)
	for _, e := range m.memo {
		if first >= e.first && last < e.first+e.n && (e.modified || !o.write) &&
			e.changes == m.Cache.changes && e.tlbMisses == m.TLB.misses {
			return true
		}
	}
	return false
}

// TestRangeWalkMatchesPerBlockOracle runs the same random operations on
// two processors, one walking ranges with Mem's inline walk and memo and
// one with the per-block oracle, and requires identical return values,
// clocks, Refs, Acct bytes and Cache/TLB state bytes after every call.
// Walks and single accesses mix private and shared addresses, cross pages
// and quantum ends, and are interleaved with TLB evictions and with
// Insert, Invalidate and SetState (downgrades and upgrades) on the cache.
func TestRangeWalkMatchesPerBlockOracle(t *testing.T) {
	totalHits := 0
	for seed := uint64(1); seed <= 12; seed++ {
		cfg := walkTestConfig()
		space := NewAddrSpace(2, cfg.PageBytes)
		priv := space.AllocPrivate(0, 4*cfg.PageBytes)
		shared := space.AllocShared(4 * cfg.PageBytes)
		far := space.AllocPrivate(1, cfg.PageBytes)
		ops := genWalkOps(seed, 1500, priv, shared, uint64(cfg.PageBytes))

		eng := sim.NewEngine(cfg.NetLatency)
		var recs [2][]walkRec
		hits := 0
		for side := 0; side < 2; side++ {
			side := side
			eng.AddProc(func(p *sim.Proc) {
				m := NewMem(p, &cfg, 7)
				m.Shared = &fakeShared{rng: sim.NewRNG(seed)}
				walk := m.stepRangeWalk
				if side == 1 {
					var o oracleWalk
					walk = func(addr uint64, bytes int, write bool) bool { return o.step(m, addr, bytes, write) }
				}
				var h int
				recs[side], h = runWalkOps(p, m, ops, walk, far)
				if side == 0 {
					hits = h
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		a, b := recs[0], recs[1]
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("seed %d: first difference after op %d (%v), call %d:\n inline %+v\n oracle %+v",
					seed, a[i].op, ops[a[i].op], a[i].call, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d calls inline, %d by the oracle", seed, len(a), len(b))
		}
		totalHits += hits
	}
	// The check is only as good as the memo use it sees.
	if totalHits < 100 {
		t.Errorf("memo vouched for %d walks over all seeds; the test no longer exercises it", totalHits)
	}
	t.Logf("%d walks settled by the memo", totalHits)
}

// TestFreshWalkOutsideQuantumStartsNothing pins the fresh-walk rule: a
// walk called at or past the quantum end returns false and changes
// nothing — not Refs, the TLB, the Acct or the walk cursor — so its
// re-call is a fresh walk, which the memo can settle in one call.
func TestFreshWalkOutsideQuantumStartsNothing(t *testing.T) {
	cfg := cost.Default(1)
	eng := sim.NewEngine(cfg.NetLatency)
	eng.AddProc(func(p *sim.Proc) {
		m := NewMem(p, &cfg, 1)
		a := NewAddrSpace(1, 32).AllocPrivate(0, 4096)
		const bytes = 1000 // 32 blocks
		for !m.StepReadRange(a, bytes) {
			p.Yield()
		}
		for !m.StepReadRange(a, bytes) { // now all hits: remembered
			p.Yield()
		}
		p.Compute(130) // past the quantum end, as Gauss charges before a pivot-row walk
		if p.StepInteract() {
			t.Fatal("clock still inside the quantum")
		}
		before := recordCall(m, 0, 0, false)
		cursor, on := m.stepRange, m.stepRangeOn
		if m.StepReadRange(a, bytes) {
			t.Fatal("walk outside the quantum reported done")
		}
		if after := recordCall(m, 0, 0, false); after != before {
			t.Errorf("walk outside the quantum changed state:\n before %+v\n after  %+v", before, after)
		}
		if m.stepRange != cursor || m.stepRangeOn != on {
			t.Errorf("walk outside the quantum moved the cursor: %#x,%v -> %#x,%v", cursor, on, m.stepRange, m.stepRangeOn)
		}
		for !p.StepInteract() {
			p.Yield()
		}
		refs := m.Refs
		if !walkCovered(m, walkOp{addr: a, bytes: bytes}) {
			t.Error("re-call is not a fresh walk the memo covers")
		}
		if !m.StepReadRange(a, bytes) {
			t.Error("fresh re-call inside the quantum did not finish in one call")
		}
		if m.Refs != refs+32 {
			t.Errorf("Refs = %d, want %d", m.Refs, refs+32)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
