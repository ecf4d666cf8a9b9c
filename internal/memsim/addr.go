// Package memsim models each node's memory system: the 256 KB 4-way
// set-associative cache with random replacement, the 64-entry FIFO TLB, the
// simulated address space (private per-node segments plus, on the
// shared-memory machine, globally addressable per-home arenas), and typed
// vectors that bind real Go data to simulated addresses.
//
// Programs perform real arithmetic on the Go backing data while every access
// is routed through the simulated TLB and cache, charging the paper's cost
// model. Cache hits cost no extra cycles — load/store instruction time is
// part of each application's calibrated computation constants, matching the
// paper's taxonomy in which only misses appear as separate categories.
package memsim

import "fmt"

// Address-space layout. Private segments are per-node and never globally
// addressable; the shared segment (used only by the shared-memory machine)
// is divided into per-home arenas so the home node of any address is a
// constant-time computation, as with a real directory machine's physical
// address interleaving.
const (
	// PrivBase is the start of private segments; node i owns
	// [PrivBase + i<<ArenaShift, PrivBase + (i+1)<<ArenaShift).
	PrivBase uint64 = 1 << 44
	// SharedBase is the start of the round-robin (striped) shared heap: the
	// home of an address rotates across nodes page by page, modeling the
	// parmacs gmalloc round-robin allocation the paper uses by default.
	SharedBase uint64 = 1 << 45
	// LocalBase is the start of the locally homed shared segment; home h
	// owns [LocalBase + h<<ArenaShift, ...). Used by the paper's
	// "local allocation policy" ablation (Table 17) and by data that must
	// live at a known home (MCS queue nodes).
	LocalBase uint64 = 1 << 46
	// ArenaShift sizes each private/local arena (64 GB).
	ArenaShift = 36
)

// IsShared reports whether an address lies in either shared segment.
func IsShared(addr uint64) bool { return addr >= SharedBase }

// HomeOf returns the home node of a shared address given the machine's node
// count and page shift (striped addresses rotate homes per page).
func HomeOf(addr uint64, procs int, pageShift uint) int {
	if addr >= LocalBase {
		return int((addr - LocalBase) >> ArenaShift)
	}
	if addr < SharedBase {
		panic(fmt.Sprintf("memsim: HomeOf private address %#x", addr))
	}
	return int(((addr - SharedBase) >> pageShift) % uint64(procs))
}

// Owner returns the node owning a private address.
func Owner(addr uint64) int {
	if IsShared(addr) || addr < PrivBase {
		panic(fmt.Sprintf("memsim: Owner of non-private address %#x", addr))
	}
	return int((addr - PrivBase) >> ArenaShift)
}

// AddrSpace allocates simulated addresses. All allocations are aligned to
// align bytes (at least the cache block size, so distinct allocations never
// share a block).
type AddrSpace struct {
	align       uint64
	privNext    []uint64
	stripedNext uint64
	localNext   []uint64
}

// NewAddrSpace creates an allocator for n nodes with the given alignment.
func NewAddrSpace(n int, align int) *AddrSpace {
	if align <= 0 || align&(align-1) != 0 {
		panic("memsim: alignment must be a positive power of two")
	}
	s := &AddrSpace{
		align:       uint64(align),
		privNext:    make([]uint64, n),
		stripedNext: SharedBase,
		localNext:   make([]uint64, n),
	}
	for i := range s.privNext {
		s.privNext[i] = PrivBase + uint64(i)<<ArenaShift
		s.localNext[i] = LocalBase + uint64(i)<<ArenaShift
	}
	return s
}

func (s *AddrSpace) take(next *uint64, bytes int) uint64 {
	if bytes < 0 {
		panic("memsim: negative allocation")
	}
	a := *next
	sz := (uint64(bytes) + s.align - 1) &^ (s.align - 1)
	if sz == 0 {
		sz = s.align
	}
	*next += sz
	return a
}

// Align returns the allocation alignment in bytes: consecutive allocations
// of at most Align bytes from one segment lie Align bytes apart.
func (s *AddrSpace) Align() uint64 { return s.align }

// AllocPrivate reserves bytes in node's private segment.
func (s *AddrSpace) AllocPrivate(node, bytes int) uint64 {
	return s.take(&s.privNext[node], bytes)
}

// AllocShared reserves bytes in the striped (round-robin) shared heap.
func (s *AddrSpace) AllocShared(bytes int) uint64 {
	return s.take(&s.stripedNext, bytes)
}

// AllocSharedOn reserves bytes in the shared segment homed entirely at home.
func (s *AddrSpace) AllocSharedOn(home, bytes int) uint64 {
	return s.take(&s.localNext[home], bytes)
}
