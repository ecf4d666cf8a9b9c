package memsim

// TLB models the 64-entry fully associative TLB with FIFO replacement and
// 4 KB pages (Table 1). A one-entry MRU filter makes the common sequential
// case cheap to simulate.
//
// Residency is tracked in a small open-addressed hash table rather than a
// Go map: the table is allocated once at construction, so the translate
// fast path performs no map operations and no allocation. Replacement
// semantics (FIFO order, miss counts) are driven entirely by the fifo ring
// and are bit-identical to the earlier map-backed implementation.
type TLB struct {
	capacity  int
	pageShift uint
	fifo      []uint64
	head      int
	// Open-addressed residency table with linear probing. Slots store
	// page+1 so the zero value means empty (page numbers start at 0).
	// Sized at 4x capacity (≤25% load) so probe chains stay short.
	slots    []uint64
	slotMask uint64
	// Small MRU filter: simulated code commonly alternates between a few
	// streams (metadata, values, a buffer), so a handful of recent pages
	// short-circuits most probes.
	mru    [4]uint64
	mruOK  [4]bool
	misses int64
}

// NewTLB constructs a TLB with the given entry count and page size.
func NewTLB(entries, pageBytes int) *TLB {
	ps := uint(0)
	for 1<<ps < pageBytes {
		ps++
	}
	nslots := 1
	for nslots < entries*4 {
		nslots <<= 1
	}
	return &TLB{
		capacity:  entries,
		pageShift: ps,
		fifo:      make([]uint64, 0, entries),
		slots:     make([]uint64, nslots),
		slotMask:  uint64(nslots - 1),
	}
}

// slotOf returns the table index holding page, or the index of the empty
// slot ending its probe chain if the page is absent (found=false).
func (t *TLB) slotOf(page uint64) (int, bool) {
	i := (page * 0x9E3779B97F4A7C15) >> 32 & t.slotMask
	for {
		s := t.slots[i]
		if s == 0 {
			return int(i), false
		}
		if s == page+1 {
			return int(i), true
		}
		i = (i + 1) & t.slotMask
	}
}

// insert adds page to the residency table (the caller guarantees absence).
func (t *TLB) insert(page uint64) {
	i, _ := t.slotOf(page)
	t.slots[i] = page + 1
}

// remove deletes page from the residency table with backward-shift
// deletion, keeping every remaining probe chain unbroken.
func (t *TLB) remove(page uint64) {
	i, ok := t.slotOf(page)
	if !ok {
		return
	}
	hole := uint64(i)
	j := (hole + 1) & t.slotMask
	for t.slots[j] != 0 {
		home := (t.slots[j] - 1) * 0x9E3779B97F4A7C15 >> 32 & t.slotMask
		// Shift the entry back iff its home position does not sit inside
		// (hole, j] — i.e. the hole interrupts its probe chain.
		if (j > hole && (home <= hole || home > j)) ||
			(j < hole && home <= hole && home > j) {
			t.slots[hole] = t.slots[j]
			hole = j
		}
		j = (j + 1) & t.slotMask
	}
	t.slots[hole] = 0
}

// Access translates addr, returning true on a hit. On a miss the page is
// installed, evicting the oldest entry FIFO-style.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageShift
	for i := range t.mru {
		if t.mruOK[i] && t.mru[i] == page {
			return true
		}
	}
	if _, ok := t.slotOf(page); ok {
		t.noteMRU(page)
		return true
	}
	t.misses++
	if len(t.fifo) < t.capacity {
		t.fifo = append(t.fifo, page)
	} else {
		evicted := t.fifo[t.head]
		t.remove(evicted)
		t.fifo[t.head] = page
		t.head = (t.head + 1) % t.capacity
		for i := range t.mru {
			if t.mruOK[i] && t.mru[i] == evicted {
				t.mruOK[i] = false
			}
		}
	}
	t.insert(page)
	t.noteMRU(page)
	return false
}

func (t *TLB) noteMRU(page uint64) {
	copy(t.mru[1:], t.mru[:len(t.mru)-1])
	copy(t.mruOK[1:], t.mruOK[:len(t.mruOK)-1])
	t.mru[0], t.mruOK[0] = page, true
}

// Misses returns the cumulative miss count.
func (t *TLB) Misses() int64 { return t.misses }

// Entries returns the number of resident translations (for tests).
func (t *TLB) Entries() int {
	n := 0
	for _, s := range t.slots {
		if s != 0 {
			n++
		}
	}
	return n
}
