package gauss

import (
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// RunMP runs Gauss-MP: the paper's message-passing Gaussian elimination
// adapted from an iPSC code, with reductions and broadcasts over the given
// software tree shape (the paper settles on lop-sided trees after trying
// flat and binary).
func RunMP(cfg cost.Config, shape cmmd.Shape, par Params) *Output {
	out := &Output{}
	rpp := rowsPerProc(par.N, cfg.Procs)
	out.Res = machine.NewMPStep(cfg, shape, func(nd *machine.MPNode) func(*sim.Proc) sim.StepStatus {
		return newMPStep(nd, par, rpp, out).step
	}).Run()
	return out
}

// Program-counter states of the Gauss-MP step machine, in program order.
const (
	gmFill       = iota // my rows
	gmBarrier0          // everyone has filled
	gmScan              // forward elimination, column k: my pivot candidate
	gmReduce            // global max |candidate| with its row
	gmBcastPivot        // announce the pivot row
	gmOwnerRead         // pivot owner: load the pivot row
	gmOwnerWrite        // ... store it into the broadcast buffer
	gmOwnerMask         // ... retire it
	gmBcastRow          // stream the pivot row to everyone
	gmElim              // eliminate column k from my rows
	gmSolve             // backward substitution, step k: the owner solves x[k]
	gmBcastX            // broadcast x[k]
	gmSetX              // store x[k]
	gmFold              // fold x[k] into my unsolved rows
	gmBarrier1          // everyone has solved
)

type mpStep struct {
	nd          *machine.MPNode
	par         Params
	out         *Output
	pivotOfStep []int // global pivot row per column, learned via broadcast

	A, prow, x memsim.FVec // my rows, the pivot-row buffer, the solution
	rows       myRows

	pc, k    int
	pv, piv  float64 // the reduced pivot value; the pivot element
	pidx     int64   // the reduced pivot row
	owner, r int     // the node holding this step's pivot row, and its row there
	xk       float64

	rs cmmd.ReduceStep
	bs cmmd.BcastStep
	vs cmmd.VecStep
}

// newMPStep does the host-side setup at the node's first dispatch: private
// storage for my rows (augmented), the pivot-row buffer, the solution
// vector and the retirement mask.
func newMPStep(nd *machine.MPNode, par Params, rpp int, out *Output) *mpStep {
	n := par.N
	s := &mpStep{nd: nd, par: par, out: out, pivotOfStep: make([]int, n)}
	s.A = nd.AllocFSized(rpp*(n+1), elemBytes)
	s.prow = nd.AllocFSized(n+1, elemBytes)
	s.x = nd.AllocFSized(n, elemBytes)
	s.rows = myRows{m: nd.Mem, a: &s.A, mask: nd.AllocI(rpp),
		n: n, width: n + 1, rpp: rpp, lo: nd.ID * rpp}
	nd.OnState(func(enc *snapshot.Enc) {
		enc.F64s(s.A.V)
		enc.F64s(s.prow.V)
		enc.F64s(s.x.V)
		enc.I64s(s.rows.mask.V)
	})
	return s
}

func (s *mpStep) step(p *sim.Proc) sim.StepStatus {
	nd := s.nd
	m := nd.Mem
	w := &s.rows
	for {
		switch s.pc {
		case gmFill:
			if !w.fill(s.par.Seed) {
				return sim.StepYield
			}
			s.pc = gmBarrier0
		case gmBarrier0:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			s.k = 0
			s.pc = gmScan

		// Forward elimination.
		case gmScan:
			if !w.scan(s.k) {
				return sim.StepYield
			}
			s.pc = gmReduce
		case gmReduce:
			pv, pidx, ok := nd.Comm.StepReduce(&s.rs, 0, w.best, w.bestRow, cmmd.OpMaxAbs)
			if !ok {
				return sim.StepYield
			}
			s.pv, s.pidx = pv, pidx
			s.pc = gmBcastPivot
		case gmBcastPivot:
			_, pidx, ok := nd.Comm.StepBcastPair(&s.bs, 0, s.pv, s.pidx)
			if !ok {
				return sim.StepYield
			}
			gr := int(pidx)
			s.pivotOfStep[s.k] = gr
			s.owner, s.r = gr/w.rpp, gr-w.lo
			nd.Compute(cPivot)
			s.pc = gmBcastRow
			if nd.ID == s.owner {
				// Copy the pivot row into the broadcast buffer.
				copy(s.prow.V[s.k:], s.A.V[w.row(s.r)+s.k:w.row(s.r+1)])
				s.pc = gmOwnerRead
			}
		case gmOwnerRead:
			if !s.A.StepReadRange(m, w.row(s.r)+s.k, w.row(s.r+1)) {
				return sim.StepYield
			}
			s.pc = gmOwnerWrite
		case gmOwnerWrite:
			if !s.prow.StepWriteRange(m, s.k, w.width) {
				return sim.StepYield
			}
			nd.Compute(int64(3 * (w.width - s.k)))
			s.pc = gmOwnerMask
		case gmOwnerMask:
			if !w.mask.StepSet(m, s.r, int64(s.k)) {
				return sim.StepYield
			}
			s.pc = gmBcastRow
		case gmBcastRow:
			if !nd.Comm.StepBcastVecF(&s.vs, s.owner, &s.prow, s.k, w.width) {
				return sim.StepYield
			}
			s.piv = s.prow.V[s.k]
			s.pc = gmElim
		case gmElim:
			if !w.elim(s.k, s.piv, &s.prow, 0) {
				return sim.StepYield
			}
			if s.k++; s.k < w.n {
				s.pc = gmScan
			} else {
				s.k = w.n - 1
				s.startBack()
			}

		// Backward substitution: the unknown solved at step k is owned by
		// the processor holding that step's pivot row; it broadcasts the
		// value as it becomes known.
		case gmSolve:
			xk, ok := w.solve(s.k, s.r)
			if !ok {
				return sim.StepYield
			}
			s.xk = xk
			s.pc = gmBcastX
		case gmBcastX:
			xk, ok := nd.Comm.StepBcast(&s.bs, s.owner, s.xk)
			if !ok {
				return sim.StepYield
			}
			s.xk = xk
			s.pc = gmSetX
		case gmSetX:
			if !s.x.StepSet(m, s.k, s.xk) {
				return sim.StepYield
			}
			s.pc = gmFold
		case gmFold:
			if !w.fold(s.k, s.xk) {
				return sim.StepYield
			}
			if s.k--; s.k >= 0 {
				s.startBack()
			} else {
				s.pc = gmBarrier1
			}
		case gmBarrier1:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			if nd.ID == 0 {
				s.out.validate(append([]float64(nil), s.x.V...))
			}
			return sim.StepDone
		}
	}
}

// startBack begins backward-substitution step k: the owner of the step's
// pivot row solves x[k]; everyone else waits for its broadcast.
func (s *mpStep) startBack() {
	gr := s.pivotOfStep[s.k]
	s.owner, s.r = gr/s.rows.rpp, gr-s.rows.lo
	s.xk = 0
	s.pc = gmBcastX
	if s.nd.ID == s.owner {
		s.pc = gmSolve
	}
}
