package parmacs

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/cost"
	"repro/internal/memsim"
)

// lockRuntime is the part of a Runtime NewLock reads, without a machine
// around it.
func lockRuntime(procs int) *Runtime {
	cfg := cost.Default(procs)
	return &Runtime{Cfg: &cfg, Space: memsim.NewAddrSpace(procs, cfg.BlockBytes)}
}

// TestNewLockAddressSequence pins the simulated addresses NewLock hands out:
// where a lock's host-side values live is free to change, but the tail word
// on node lockSerial%n and then, node by node, the locked word and the next
// word, one block each, are what the coherence protocol sees, so a change
// here moves every lock fingerprint. The literals were recorded from the
// one-IVec-per-cell NewLock this layout replaced.
func TestNewLockAddressSequence(t *testing.T) {
	const procs = 64
	type addrs struct{ tail, locked0, next0, lockedN, nextN uint64 }
	want := []addrs{
		{0x400000000000, 0x400000000020, 0x400000000040, 0x43f000000000, 0x43f000000020},
		{0x401000000040, 0x400000000060, 0x400000000080, 0x43f000000040, 0x43f000000060},
		{0x402000000080, 0x4000000000a0, 0x4000000000c0, 0x43f000000080, 0x43f0000000a0},
	}
	const wantHash = 0x11f77fcc1565dd5 // FNV-1a over tail, then locked/next per node, all three locks

	rt := lockRuntime(procs)
	h := fnv.New64a()
	for k, w := range want {
		l := NewLock(rt)
		if len(l.vals) != 0 {
			t.Fatalf("lock %d: %d nodes' cell values held before any node touched it", k, len(l.vals))
		}
		got := addrs{l.tail.Base, l.lockedCell(0).Base, l.nextCell(0).Base, l.lockedCell(procs - 1).Base, l.nextCell(procs - 1).Base}
		if got != w {
			t.Errorf("lock %d: addresses %#x, want %#x", k, got, w)
		}
		var b [8]byte
		word := func(a uint64) {
			binary.LittleEndian.PutUint64(b[:], a)
			h.Write(b[:])
		}
		word(l.tail.Base)
		for i := 0; i < procs; i++ {
			locked, next := l.lockedCell(i), l.nextCell(i)
			word(locked.Base)
			word(next.Base)
			if locked.V[0] != 0 || next.V[0] != -1 {
				t.Fatalf("lock %d node %d: locked %d next %d, want 0 and -1", k, i, locked.V[0], next.V[0])
			}
		}
		if l.tail.V[0] != -1 {
			t.Fatalf("lock %d: tail %d, want -1 (free)", k, l.tail.V[0])
		}
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("address sequence hash %#x, want %#x", got, wantHash)
	}
}

// TestNewLockAllocsIndependentOfP: EM3D-SM makes one lock per node, so a lock
// whose host state is O(P) objects makes the machine's O(P^2). A new lock is
// the struct, the tail vector and one vector of P cell offsets; the cells'
// values come later, one entry per node that touches the lock.
func TestNewLockAllocsIndependentOfP(t *testing.T) {
	const procs = 1024
	rt := lockRuntime(procs)
	if got := testing.AllocsPerRun(procs, func() { NewLock(rt) }); got >= 8 {
		t.Errorf("NewLock on a P=%d runtime: %v mallocs per lock, want fewer than 8", procs, got)
	}
}
