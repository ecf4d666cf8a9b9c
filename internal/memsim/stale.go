package memsim

import "repro/internal/sim"

// BoundaryVec is the one boundary image of a shared vector: what a processor
// may see of other nodes' writes. The conservative window leaves open which
// processors run first inside a quantum, so a cross-node read of the live
// backing would depend on dispatch order; readers copy from Image, the
// backing as of the most recent quantum boundary, instead.
//
// Every write to the backing goes through Set or SetRange, which record it;
// the publisher (an Engine publisher, so part of the simulation) copies only
// the elements written since the last boundary. A write that bypasses them
// never reaches Image.
type BoundaryVec struct {
	G     *FVec     // the live backing
	Image []float64 // G as of the last boundary; read-only outside the publisher

	writer []int32 // the processor that wrote element i last since the boundary, or -1
	dirty  []int32 // the elements written since the boundary, each once
}

// publishHook, when set (by tests only), runs after every publish with the
// number of elements copied.
var publishHook func(b *BoundaryVec, n int)

// NewBoundaryVec gives shared vector g a boundary image, published on eng.
func NewBoundaryVec(eng *sim.Engine, g *FVec) *BoundaryVec {
	b := &BoundaryVec{G: g, Image: append([]float64(nil), g.V...), writer: make([]int32, len(g.V))}
	for i := range b.writer {
		b.writer[i] = -1
	}
	eng.AddPublisher(func(sim.Time) {
		for _, i := range b.dirty {
			b.Image[i] = g.V[i]
			b.writer[i] = -1
		}
		if publishHook != nil {
			publishHook(b, len(b.dirty))
		}
		b.dirty = b.dirty[:0]
	})
	return b
}

// Set stores x into element i of the backing on behalf of processor p. It
// moves data only; the caller charges the simulated store.
func (b *BoundaryVec) Set(p, i int, x float64) {
	b.G.V[i] = x
	if b.writer[i] < 0 {
		b.dirty = append(b.dirty, int32(i))
	}
	b.writer[i] = int32(p)
}

// SetRange stores xs into elements [lo, lo+len(xs)) on behalf of processor p.
func (b *BoundaryVec) SetRange(p, lo int, xs []float64) {
	for k, x := range xs {
		b.Set(p, lo+k, x)
	}
}

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
// A refetch returns the boundary image with the block's elements the reader
// wrote since the boundary overlaid from the live backing. Of two writers of
// one element in one quantum only the last counts as its writer: its
// refetch sees the live value, the earlier one's the boundary image. Writes
// to disjoint elements of a shared block remain the writers'
// responsibility, as on real hardware.
type StaleVec struct {
	*BoundaryVec
	snap [][]float64 // snap[p] is processor p's view, refreshed block by block on misses
}

// NewStaleVec wraps a shared vector for procs processors. Initial snapshots
// equal the backing's current contents.
func NewStaleVec(eng *sim.Engine, g *FVec, procs int) *StaleVec {
	s := &StaleVec{BoundaryVec: NewBoundaryVec(eng, g), snap: make([][]float64, procs)}
	for p := range s.snap {
		s.snap[p] = append([]float64(nil), g.V...)
	}
	return s
}

// refreshBlock refills processor p's snapshot of the block containing
// element i from the boundary image, then overlays the elements p wrote
// since the boundary.
func (s *StaleVec) refreshBlock(m *Mem, i int) {
	per := max(m.Cfg.BlockBytes/s.G.ElemBytes, 1)
	lo := (i / per) * per
	hi := min(lo+per, len(s.G.V))
	p := int32(m.P.ID)
	snap := s.snap[p]
	copy(snap[lo:hi], s.Image[lo:hi])
	for j := lo; j < hi; j++ {
		if s.writer[j] == p {
			snap[j] = s.G.V[j]
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

// StepSet simulates a store of element i: the write goes to the backing,
// which other processors see at their first miss after the boundary, and to
// the writer's own view, exactly once, on the completing call.
func (s *StaleVec) StepSet(m *Mem, i int, x float64) bool {
	if !m.StepWrite(s.G.Addr(i)) {
		return false
	}
	s.Set(m.P.ID, i, x)
	s.refreshBlock(m, i) // we own the block: the overlay restores x
	return true
}
