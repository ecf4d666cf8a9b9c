package coherence

import (
	"math/bits"

	"repro/internal/snapshot"
)

// sharerSet is a block's full-map sharer set (Dir_n: one presence bit per
// node), held inline in its directory entry in the smallest form the
// machine allows. words is the map's width, (P+63)/64, fixed when the entry
// is made, and it selects the form:
//   - words == 1 (P<=64): w is the map itself.
//   - words > 1 (P>64): w holds up to four members, each node ID plus one,
//     in ascending 16-bit lanes from the low end; empty lanes are zero and
//     lie above the full ones. A fifth member (or an ID too large for a
//     lane) spills the set to a full map in spill, where it stays: at P=1024
//     almost every block has at most three sharers, and the few that are
//     shared by every node keep one map rather than re-spilling each time
//     they are written.
//
// Every form holds the same members in the same order: forEach walks them
// ascending, and encode writes the map's words, so invalidation order and
// state bytes do not depend on the form.
type sharerSet struct {
	w     uint64
	spill *bitset
	words uint32
}

// bitset is a full-map sharer set: a spilled sharerSet's map.
type bitset []uint64

const (
	laneBits  = 16
	laneMask  = 1<<laneBits - 1
	laneCount = 64 / laneBits
)

// lane returns the k'th lane of w.
func lane(w uint64, k int) uint64 { return w >> (k * laneBits) & laneMask }

// find returns the first lane of w whose member is i or above it, and
// whether that member is i. It returns the number of members when every
// member is below i.
func (s *sharerSet) find(i int) (k int, ok bool) {
	v := uint64(i) + 1
	for k = 0; k < laneCount; k++ {
		switch x := lane(s.w, k); {
		case x == 0 || x > v:
			return k, false
		case x == v:
			return k, true
		}
	}
	return k, false
}

func (s *sharerSet) has(i int) bool {
	switch {
	case s.spill != nil:
		return (*s.spill)[i/64]&(1<<(i%64)) != 0
	case s.words == 1:
		return s.w&(1<<i) != 0
	}
	_, ok := s.find(i)
	return ok
}

func (s *sharerSet) set(i int) {
	switch {
	case s.spill != nil:
		(*s.spill)[i/64] |= 1 << (i % 64)
		return
	case s.words == 1:
		s.w |= 1 << i
		return
	}
	k, ok := s.find(i)
	if ok {
		return
	}
	if lane(s.w, laneCount-1) != 0 || i >= laneMask {
		m := make(bitset, s.words)
		s.forEach(func(j int) { m[j/64] |= 1 << (j % 64) })
		m[i/64] |= 1 << (i % 64)
		s.spill, s.w = &m, 0
		return
	}
	sh := k * laneBits
	low := s.w & (1<<sh - 1)
	s.w = low | (uint64(i)+1)<<sh | (s.w>>sh)<<(sh+laneBits)
}

func (s *sharerSet) clear(i int) {
	switch {
	case s.spill != nil:
		(*s.spill)[i/64] &^= 1 << (i % 64)
		return
	case s.words == 1:
		s.w &^= 1 << i
		return
	}
	k, ok := s.find(i)
	if !ok {
		return
	}
	sh := k * laneBits
	low := s.w & (1<<sh - 1)
	s.w = low | (s.w>>(sh+laneBits))<<sh
}

// reset empties the set, keeping its form.
func (s *sharerSet) reset() {
	s.w = 0
	if s.spill != nil {
		clear(*s.spill)
	}
}

func (s *sharerSet) count() int {
	switch {
	case s.spill != nil:
		n := 0
		for _, w := range *s.spill {
			n += bits.OnesCount64(w)
		}
		return n
	case s.words == 1:
		return bits.OnesCount64(s.w)
	}
	return (bits.Len64(s.w) + laneBits - 1) / laneBits
}

// forEach calls fn on each member in ascending order.
func (s *sharerSet) forEach(fn func(i int)) {
	switch {
	case s.spill != nil:
		for wi, w := range *s.spill {
			for ; w != 0; w &= w - 1 {
				fn(wi*64 + bits.TrailingZeros64(w))
			}
		}
	case s.words == 1:
		for w := s.w; w != 0; w &= w - 1 {
			fn(bits.TrailingZeros64(w))
		}
	default:
		for w := s.w; w != 0; w >>= laneBits {
			fn(int(w&laneMask) - 1)
		}
	}
}

// encode writes the set as its full map: the word count, then the words.
func (s *sharerSet) encode(enc *snapshot.Enc) {
	switch {
	case s.spill != nil:
		enc.U64s(*s.spill)
		return
	case s.words == 1:
		enc.U32(1)
		enc.U64(s.w)
		return
	}
	enc.U32(s.words)
	w := s.w
	for wi := 0; wi < int(s.words); wi++ {
		var x uint64
		for ; w != 0; w >>= laneBits {
			id := int(w&laneMask) - 1
			if id/64 != wi {
				break
			}
			x |= 1 << (id % 64)
		}
		enc.U64(x)
	}
}
