package memsim

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/sim"
)

// Cache line states. The message-passing machine uses Invalid / Modified
// semantics (every cached block is local and writable); the shared-memory
// coherence protocol additionally uses Shared for read-only copies.
const (
	Invalid  uint8 = iota
	Shared         // valid, read-only (clean)
	Modified       // valid, writable (dirty)
)

// StateName returns a diagnostic name for a cache-line state, used by the
// coherence invariant checker's violation reports.
func StateName(st uint8) string {
	switch st {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	case Modified:
		return "Modified"
	}
	return fmt.Sprintf("state(%d)", st)
}

// Line is one cache line's tag state. Tag stores the full block number
// (address >> block shift), so aliasing is impossible.
type Line struct {
	Tag   uint64
	State uint8
}

// A line is stored packed in one word: block number plus one in the upper
// 62 bits, state in the low 2. Padding made the two-field Line struct 16
// bytes, so packing halves every tag table, to 64 KB per simulated
// processor at the paper's 256 KB/4-way/32 B geometry. The table is
// anonymous memory mapped from the kernel (newTagTable), not Go heap: a
// P=1024 node touches a few hundred blocks, so most of its table is never
// written and never takes a resident page, and the zero word below is what
// a page the kernel has not yet backed reads as.
//
// A packed word of 0 is exactly an Invalid line, and the +1 tag bias keeps
// that true for block 0 as well: a zero word can never equal any valid
// line's tag bits, so the tag-match loops in Lookup and friends need no
// separate validity test — the single hottest comparison in the simulator.
type packedLine uint64

func packLine(block uint64, state uint8) packedLine {
	return packedLine((block+1)<<2 | uint64(state))
}

// tagBits returns the match key for block: what a resident line's word
// looks like with the state bits cleared. Never zero, by the +1 bias.
func tagBits(block uint64) uint64 { return (block + 1) << 2 }

func (l packedLine) block() uint64 { return uint64(l)>>2 - 1 }
func (l packedLine) state() uint8  { return uint8(l & 3) }
func (l packedLine) valid() bool   { return l>>2 != 0 }

func (l packedLine) unpack() Line {
	if !l.valid() {
		return Line{}
	}
	return Line{Tag: l.block(), State: l.state()}
}

// Cache is an n-way set-associative cache with random replacement (Table 1:
// 256 KB, 4-way, 32-byte blocks, random replacement). Victim selection draws
// from a deterministic per-cache RNG.
//
// Only NewCache builds a Cache, and a Cache must never be copied by value:
// on unix systems its tag table is kernel-mapped memory that a finalizer on
// the *Cache gives back, so a copy would outlive its table. The garbage
// collector does not see the mapping, so a slice of c.lines does not keep c
// alive; every method that reads or writes through one calls
// runtime.KeepAlive(c) after its last access. The race detector does not
// instrument the mapped table either.
type Cache struct {
	assoc      int
	sets       int
	blockShift uint
	setMask    uint64
	lines      []packedLine
	rng        *sim.RNG

	// changes counts the calls that changed a line (Insert, SetState,
	// Flush, and Invalidate of a resident block): Mem's clean-walk memo
	// holds while it does not move. Host-only, never encoded.
	changes uint64

	// SharedDirtyIsShared: under the coherence protocol, blocks in the
	// shared segment track Shared/Modified precisely; the MP machine marks
	// everything Modified on write.
}

// NewCache constructs a cache with the given geometry.
func NewCache(capacityBytes, assoc, blockBytes int, rng *sim.RNG) *Cache {
	if capacityBytes%(assoc*blockBytes) != 0 {
		panic("memsim: cache capacity not divisible by assoc*block")
	}
	sets := capacityBytes / (assoc * blockBytes)
	if sets&(sets-1) != 0 {
		panic("memsim: number of sets must be a power of two")
	}
	bs := uint(0)
	for 1<<bs < blockBytes {
		bs++
	}
	c := &Cache{
		assoc:      assoc,
		sets:       sets,
		blockShift: bs,
		setMask:    uint64(sets - 1),
		rng:        rng,
	}
	c.lines = newTagTable(c, sets*assoc)
	return c
}

// tagBytesMapped counts the bytes of every tag table newTagTable has mapped
// from the kernel in this process.
var tagBytesMapped atomic.Int64

// TagBytesMapped returns the bytes of tag table mapped outside the Go heap
// since the process started, cumulatively like runtime.MemStats.TotalAlloc,
// so that a measurement of a run's host allocations can count the tables
// the heap no longer holds.
func TagBytesMapped() int64 { return tagBytesMapped.Load() }

// BlockShift returns log2(block size).
func (c *Cache) BlockShift() uint { return c.blockShift }

// BlockOf returns the block number containing addr.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr >> c.blockShift }

// set returns block's set. The slice does not keep c alive (see Cache).
func (c *Cache) set(block uint64) []packedLine {
	s := int(block & c.setMask)
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

// Lookup returns the state of block in the cache (Invalid if absent).
func (c *Cache) Lookup(block uint64) uint8 {
	want := tagBits(block)
	for _, l := range c.set(block) {
		if uint64(l)&^3 == want {
			return l.state()
		}
	}
	runtime.KeepAlive(c) // through the loop: a hit has made its last load
	return Invalid
}

// SetState changes the state of a resident block; it panics if the block is
// not resident (protocol bugs should fail loudly).
func (c *Cache) SetState(block uint64, state uint8) {
	ws := c.set(block)
	want := tagBits(block)
	for i := range ws {
		if uint64(ws[i])&^3 == want {
			if state == Invalid {
				ws[i] = 0
			} else {
				ws[i] = packLine(block, state)
			}
			c.changes++
			runtime.KeepAlive(c)
			return
		}
	}
	panic(fmt.Sprintf("memsim: SetState on non-resident block %#x", block))
}

// Invalidate removes block if resident, returning its previous state
// (Invalid if it was not resident — silent S-replacements make directories
// send invalidations for blocks a cache has already dropped).
func (c *Cache) Invalidate(block uint64) uint8 {
	ws := c.set(block)
	want := tagBits(block)
	for i := range ws {
		if uint64(ws[i])&^3 == want {
			st := ws[i].state()
			ws[i] = 0
			c.changes++
			runtime.KeepAlive(c)
			return st
		}
	}
	return Invalid
}

// Insert places block with the given state, choosing a victim at random if
// the set is full. It returns the evicted line (State Invalid if an empty
// way was used). Inserting a block that is already resident panics.
func (c *Cache) Insert(block uint64, state uint8) Line {
	c.changes++
	ws := c.set(block)
	for i := range ws {
		if ws[i].valid() && ws[i].block() == block {
			panic(fmt.Sprintf("memsim: Insert of resident block %#x", block))
		}
	}
	for i := range ws {
		if !ws[i].valid() {
			ws[i] = packLine(block, state)
			runtime.KeepAlive(c)
			return Line{}
		}
	}
	v := c.rng.Intn(c.assoc)
	victim := ws[v].unpack()
	ws[v] = packLine(block, state)
	runtime.KeepAlive(c)
	return victim
}

// Resident reports how many lines are valid (for tests).
func (c *Cache) Resident() int {
	n := 0
	for _, l := range c.lines {
		if l.valid() {
			n++
		}
	}
	runtime.KeepAlive(c)
	return n
}

// Flush invalidates the entire cache, returning the dirty lines that would
// require writeback.
func (c *Cache) Flush() []Line {
	c.changes++
	var dirty []Line
	for i := range c.lines {
		if c.lines[i].state() == Modified {
			dirty = append(dirty, c.lines[i].unpack())
		}
		c.lines[i] = 0
	}
	runtime.KeepAlive(c)
	return dirty
}
