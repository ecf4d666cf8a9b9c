package coherence

// White-box tests of the directory's chunk table: sparse keying, ordered
// walks, and lookups that never create entries.

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/memsim"
	"repro/internal/sim"
)

// newTestProtocol builds a protocol for procs nodes with memories attached
// and nothing run.
func newTestProtocol(procs int) *Protocol {
	cfg := cost.Default(procs)
	eng := sim.NewEngine(cfg.NetLatency)
	pr := New(eng, &cfg)
	for i := 0; i < procs; i++ {
		pr.AttachMem(i, memsim.NewMem(eng.AddProc(func(*sim.Proc) {}), &cfg, 1))
	}
	return pr
}

// dirBlocks returns home's directory entries' blocks in walk order and its
// chunk count.
func dirBlocks(pr *Protocol, home int) (blocks []uint64, chunks int) {
	n := pr.nodes[home]
	n.walk(func(b uint64, _ *entry) bool {
		blocks = append(blocks, b)
		return true
	})
	if len(n.order) != len(n.chunks) {
		panic("chunk map and chunk order disagree")
	}
	return blocks, len(n.chunks)
}

// TestDirectoryChunksAreSparse: two blocks 2^30 blocks apart at one home
// cost two chunks, not a dense range between them. One home's blocks really
// are that far apart (its striped pages and its local arena lie 2^40 blocks
// apart, and at P>256 nodes' private arenas reach into the shared segment),
// so a dense per-home index would allocate gigabytes. The walk visits the
// entries in ascending block order whatever order they were created in.
func TestDirectoryChunksAreSparse(t *testing.T) {
	pr := newTestProtocol(1024)
	lo := memsim.SharedBase >> 5
	hi := lo + 1<<30

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pr.entryOf(0, hi)
	pr.entryOf(0, lo)
	pr.entryOf(0, lo+3)
	runtime.ReadMemStats(&m1)

	blocks, chunks := dirBlocks(pr, 0)
	if chunks != 2 {
		t.Errorf("%d chunks for blocks in two chunk ranges, want 2", chunks)
	}
	if want := []uint64{lo, lo + 3, hi}; len(blocks) != len(want) ||
		blocks[0] != want[0] || blocks[1] != want[1] || blocks[2] != want[2] {
		t.Errorf("walk visits %#x, want %#x", blocks, want)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 64<<10 {
		t.Errorf("three entries in two chunks allocated %d bytes, want well under 64 KB", grew)
	}
}

// TestDirectoryLookupNeverCreates: DirStateOf and lookup report a block
// with no entry as idle/absent and leave the directory as they found it,
// even when a neighbour in the same chunk has an entry. Snapshot bytes
// list exactly the entries that exist, so a read that created one would
// change them.
func TestDirectoryLookupNeverCreates(t *testing.T) {
	pr := newTestProtocol(4)
	addr := memsim.SharedBase
	block := addr >> pr.nodes[0].mem.Cache.BlockShift()
	home := pr.homeOf(block)

	probe := func(when string, wantEntries, wantChunks int) {
		t.Helper()
		if st, n := pr.DirStateOf(addr); st != "idle" || n != 0 {
			t.Errorf("%s: DirStateOf = %s/%d, want idle/0", when, st, n)
		}
		if e := pr.lookup(home, block); e != nil {
			t.Errorf("%s: lookup found an entry for a block never requested", when)
		}
		if blocks, chunks := dirBlocks(pr, home); len(blocks) != wantEntries || chunks != wantChunks {
			t.Errorf("%s: %d entries in %d chunks, want %d in %d", when, len(blocks), chunks, wantEntries, wantChunks)
		}
	}
	probe("empty directory", 0, 0)
	pr.entryOf(home, block+1)
	probe("neighbour created", 1, 1)
	if e := pr.lookup(home, block+1); e == nil || e.state != dirIdle || e.owner != -1 || e.sharers.count() != 0 {
		t.Errorf("created neighbour is %+v, want idle with no owner or sharers", e)
	}
}
