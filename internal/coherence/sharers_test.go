package coherence

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestSharerSetMatchesFullMap drives a sharerSet through random adds,
// removes and resets beside a plain full map, at every width the machine
// sizes use: one word (held in place), two and sixteen (lanes, then a
// spill). After each step the two must agree on has, count, the ascending
// member order forEach gives, and the encoded bytes, which are what state
// hashes and checkpoints see.
func TestSharerSetMatchesFullMap(t *testing.T) {
	for _, procs := range []int{8, 64, 128, 1024} {
		words := (procs + 63) / 64
		s := sharerSet{words: uint32(words)}
		ref := make([]uint64, words)
		rng := sim.NewRNG(uint64(procs))
		spilled := false
		for step := 0; step < 20000; step++ {
			// Keep sets small most of the time, as directories see them, so
			// lanes fill, empty and overflow many times over.
			hot := 6
			if step%1000 > 900 {
				hot = procs
			}
			i := rng.Intn(min(hot, procs)) * (procs / min(hot, procs))
			switch r := rng.Intn(100); {
			case r < 50:
				s.set(i)
				ref[i/64] |= 1 << (i % 64)
			case r < 97:
				s.clear(i)
				ref[i/64] &^= 1 << (i % 64)
			default:
				s.reset()
				clear(ref)
			}
			spilled = spilled || s.spill != nil
			var want []int
			for j := 0; j < procs; j++ {
				if ref[j/64]&(1<<(j%64)) != 0 {
					want = append(want, j)
				}
				if s.has(j) != (ref[j/64]&(1<<(j%64)) != 0) {
					t.Fatalf("P=%d step %d: has(%d) = %v, full map says otherwise", procs, step, j, s.has(j))
				}
			}
			var got []int
			s.forEach(func(j int) { got = append(got, j) })
			if !slices.Equal(got, want) || s.count() != len(want) {
				t.Fatalf("P=%d step %d: members %v (count %d), want %v", procs, step, got, s.count(), want)
			}
			var a, b snapshot.Enc
			s.encode(&a)
			b.U64s(ref)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("P=%d step %d: encoded %x, full map encodes %x", procs, step, a.Bytes(), b.Bytes())
			}
		}
		if spilled != (procs > 64) {
			t.Errorf("P=%d: spilled %v, want %v", procs, spilled, procs > 64)
		}
	}
}

// TestEntryInline holds a directory entry, sharer set included, to 64
// bytes and a chunk to one allocation at any machine size: the sharer set
// used to be a slice carved from a per-chunk slab of P bits per block.
func TestEntryInline(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 64 {
		t.Errorf("entry is %d bytes, want at most 64", n)
	}
	n := &node{chunks: map[uint64]*chunk{}}
	key := uint64(0)
	if got := testing.AllocsPerRun(100, func() {
		key++
		n.newChunk(key, 1024/64)
	}); got != 1 { // AllocsPerRun truncates the map's and n.order's amortised growth
		t.Errorf("newChunk at P=1024: %v mallocs, want 1, the chunk", got)
	}
}
