package memsim

import "repro/internal/sim"

// StaleVec gives a shared float vector hardware-faithful value semantics:
// each processor's reads return the values its cache actually holds — the
// snapshot taken when the block was last fetched — rather than the globally
// freshest backing values. New values become visible only through the
// coherence protocol: the producer's write invalidates the consumer's
// cached block, the consumer's next read misses, and the refetch refreshes
// the snapshot.
//
// This matters for algorithms whose *behavior* depends on value freshness.
// The paper's asynchronous LCP (ALCP) converges in fewer steps than the
// synchronous version precisely because values propagate mid-step — but
// only as fast as invalidations and refetches allow. Simulating with
// perfectly fresh values would overstate that advantage enormously.
//
// A refetch returns the backing image as of the most recent quantum
// boundary, with the reading processor's own later writes overlaid. The
// conservative window already declares intra-quantum cross-processor
// interactions unordered, so a refetch that sampled the live backing would
// make the copied values depend on which processors happened to run first
// inside the quantum — under a worker pool, on host scheduling. Snapshotting
// at the boundary (an Engine publisher) keeps values identical for any
// Workers setting. Writes to disjoint elements of a shared block remain the
// writers' responsibility, as on real hardware.
type StaleVec struct {
	// G is the underlying shared vector (the authoritative backing).
	G *FVec
	// snap[p] is processor p's view: refreshed block-by-block on misses.
	snap [][]float64
	// base is the backing image captured at the last quantum boundary;
	// refetches copy from it, never from the live backing.
	base []float64
	// wlog[p] holds the indices processor p wrote (via StepSet) since the last
	// boundary, so refetches can overlay the processor's own fresh values.
	wlog [][]int
}

// NewStaleVec wraps a shared vector for procs processors. Initial snapshots
// equal the backing's current contents. The boundary image refreshes as an
// engine publisher: part of the simulation, deterministic at every quantum.
func NewStaleVec(eng *sim.Engine, g *FVec, procs int) *StaleVec {
	s := &StaleVec{G: g, snap: make([][]float64, procs), wlog: make([][]int, procs)}
	for p := range s.snap {
		s.snap[p] = append([]float64(nil), g.V...)
	}
	s.base = append([]float64(nil), g.V...)
	eng.AddPublisher(func(sim.Time) {
		copy(s.base, g.V)
		for p := range s.wlog {
			s.wlog[p] = s.wlog[p][:0]
		}
	})
	return s
}

// elemsPerBlock returns how many elements share a cache block.
func (s *StaleVec) elemsPerBlock(m *Mem) int {
	n := m.Cfg.BlockBytes / s.G.ElemBytes
	if n < 1 {
		n = 1
	}
	return n
}

// refreshBlock fills processor p's snapshot of the block containing element
// i from the boundary image, then overlays p's own writes from this quantum
// (which the boundary image cannot hold yet). Only the owning processor
// touches its wlog entries' backing slots within a quantum, so reading them
// from the live backing is race-free.
func (s *StaleVec) refreshBlock(m *Mem, i int) {
	per := s.elemsPerBlock(m)
	lo := (i / per) * per
	hi := lo + per
	if hi > len(s.G.V) {
		hi = len(s.G.V)
	}
	p := m.P.ID
	copy(s.snap[p][lo:hi], s.base[lo:hi])
	for _, j := range s.wlog[p] {
		if j >= lo && j < hi {
			s.snap[p][j] = s.G.V[j]
		}
	}
}

// StepGet simulates a load of element i and returns the value the
// processor's cache holds (refreshed if the load missed); the value is valid
// only when done. A resumed access refreshes from the boundary image of the
// quantum of the wake.
func (s *StaleVec) StepGet(m *Mem, i int) (float64, bool) {
	done, missed := m.StepReadTrack(s.G.Addr(i))
	if !done {
		return 0, false
	}
	if missed {
		s.refreshBlock(m, i)
	}
	return s.snap[m.P.ID][i], true
}

// StepSet simulates a store of element i: the write goes to the backing
// (other processors observe it at their next miss) and to the writer's own
// view. Backing write, write log, and snapshot refresh all happen exactly
// once, on the completing call.
func (s *StaleVec) StepSet(m *Mem, i int, x float64) bool {
	if !m.StepWrite(s.G.Addr(i)) {
		return false
	}
	s.G.V[i] = x
	s.wlog[m.P.ID] = append(s.wlog[m.P.ID], i)
	// Ownership means our snapshot of this block is current (as of the
	// boundary image plus our own writes — the overlay restores x).
	s.refreshBlock(m, i)
	return true
}

// MirrorVec is a read-only boundary image of a shared vector for apps that
// refresh by scheduled bulk copies rather than per-element cached reads
// (MSE-SM's snapshot refresh). V holds the backing's contents as of the most
// recent quantum boundary; an engine publisher refreshes it. Readers copy
// remote partitions from V while owners write the live backing — the same
// one-quantum visibility floor the conservative window already imposes on
// every cross-processor interaction, so results cannot depend on which
// processors the worker pool happened to run first.
type MirrorVec struct {
	// V is the boundary image. Read-only outside the publisher.
	V []float64
}

// NewMirror wraps shared vector g with a quantum-boundary image.
func NewMirror(eng *sim.Engine, g *FVec) *MirrorVec {
	mv := &MirrorVec{V: append([]float64(nil), g.V...)}
	eng.AddPublisher(func(sim.Time) { copy(mv.V, g.V) })
	return mv
}
