package memsim

import (
	"runtime"

	"repro/internal/snapshot"
)

// EncodeState contributes the cache image to a canonical state snapshot:
// every line's tag and state in set/way order, plus the replacement RNG's
// position (victim choice is part of replayable state — a drifted RNG
// would silently change every later eviction).
func (c *Cache) EncodeState(enc *snapshot.Enc) {
	enc.Section("cache", func(enc *snapshot.Enc) {
		enc.U32(uint32(c.sets))
		enc.U32(uint32(c.assoc))
		enc.U32(uint32(len(c.lines)))
		for _, pl := range c.lines {
			l := pl.unpack()
			enc.U64(l.Tag)
			enc.U8(l.State)
		}
		enc.U64(c.rng.State())
	})
	runtime.KeepAlive(c)
}

// EncodeState contributes the TLB image: resident pages in FIFO order
// (from the oldest entry) and the cumulative miss count. The MRU filter is
// a pure lookup accelerator derived from the same history, so it is not
// encoded.
func (t *TLB) EncodeState(enc *snapshot.Enc) {
	enc.Section("tlb", func(enc *snapshot.Enc) {
		enc.U32(uint32(t.capacity))
		enc.U32(uint32(len(t.fifo)))
		for i := 0; i < len(t.fifo); i++ {
			enc.U64(t.fifo[(t.head+i)%len(t.fifo)])
		}
		enc.I64(t.misses)
	})
}

// EncodeState contributes one processor's full memory-system state.
func (m *Mem) EncodeState(enc *snapshot.Enc) {
	enc.Section("mem", func(enc *snapshot.Enc) {
		enc.I64(m.Refs)
		m.Cache.EncodeState(enc)
		m.TLB.EncodeState(enc)
	})
}
