package gauss

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// gaussSMShared is the shared state node 0 establishes before Create.
type gaussSMShared struct {
	A     memsim.FVec // the whole augmented matrix, rows blockwise
	x     memsim.FVec // the solution vector
	pvVal memsim.FVec // published pivot value
	pvIdx memsim.IVec // published pivot global row
	red   *parmacs.Reduction
}

// RunSM runs Gauss-SM: the shared-memory version the authors wrote from the
// message-passing code. Pivot selection uses an MCS-style software
// reduction; broadcasts happen "by letting all processors read it" — the
// writer publishes into shared memory, everyone waits at a barrier, then
// reads (incurring the directory contention the paper measures).
func RunSM(cfg cost.Config, par Params) *Output {
	out := &Output{}
	rpp := rowsPerProc(par.N, cfg.Procs)
	var sh gaussSMShared
	out.Res = machine.NewSMStep(cfg, parmacs.RoundRobin, func(nd *machine.SMNode) func(*sim.Proc) sim.StepStatus {
		return newSMStep(nd, par, rpp, out, &sh).step
	}).Run()
	return out
}

// Program-counter states of the Gauss-SM step machine, in program order.
const (
	gsCreate   = iota // node 0 starts the workers; the rest wait for it
	gsBarrier0        // the shared structures exist
	gsFill            // my rows of the shared matrix
	gsBarrier1        // everyone has filled
	gsScan            // forward elimination, column k: my pivot candidate
	gsReduce          // global max |candidate| with its row
	gsPubVal          // node 0: publish the pivot value
	gsPubIdx          // ... and its row
	gsBarrier2        // the publish is complete
	gsReadIdx         // read the published pivot row
	gsReadVal         // ... and value
	gsRetire          // pivot owner: retire the pivot row
	gsElim            // eliminate column k from my rows
	gsSolve           // backward substitution, step k: the owner solves x[k]
	gsPubX            // ... and publishes it
	gsBarrier3        // the publish is complete
	gsReadX           // read x[k]
	gsFold            // fold x[k] into my unsolved rows
	gsBarrier4        // everyone has solved
	gsGather          // node 0: read the solution
)

type smStep struct {
	nd          *machine.SMNode
	par         Params
	rpp         int
	out         *Output
	sh          *gaussSMShared
	pivotOfStep []int // global pivot row per column, read from shared memory

	rows myRows // allocated with the private mask once sh is established

	pc, k   int
	rv, piv float64 // the reduced pivot value; the pivot element
	ri      int64   // the reduced pivot row
	gr      int     // this step's pivot row
	xk      float64

	rds parmacs.RedStep
}

// newSMStep does the host-side setup at the node's first dispatch. Node 0
// also establishes the shared structures here, before its Create; other
// nodes touch sh only after their StepWaitCreate completes.
func newSMStep(nd *machine.SMNode, par Params, rpp int, out *Output, sh *gaussSMShared) *smStep {
	n := par.N
	if nd.ID == 0 {
		sh.A = nd.RT.GMallocFSized(0, n*(n+1), elemBytes)
		sh.x = nd.RT.GMallocFSized(0, n, elemBytes)
		sh.pvVal = nd.RT.GMallocF(0, 1)
		sh.pvIdx = nd.RT.GMallocI(0, 1)
		sh.red = parmacs.NewReduction(nd.RT)
	}
	return &smStep{nd: nd, par: par, rpp: rpp, out: out, sh: sh, pivotOfStep: make([]int, n)}
}

func (s *smStep) step(p *sim.Proc) sim.StepStatus {
	nd, sh := s.nd, s.sh
	m := nd.Mem
	me := nd.ID
	w := &s.rows
	for {
		switch s.pc {
		case gsCreate:
			if me == 0 {
				nd.RT.Create(p)
			} else if !nd.RT.StepWaitCreate(p) {
				return sim.StepYield
			}
			s.pc = gsBarrier0
		case gsBarrier0:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			// Allocated and registered here, once sh is established on
			// every node. My rows are my block of the shared matrix.
			n, lo := s.par.N, me*s.rpp
			s.rows = myRows{m: m, a: &sh.A, base: lo * (n + 1), mask: nd.AllocI(s.rpp),
				n: n, width: n + 1, rpp: s.rpp, lo: lo}
			nd.OnState(func(enc *snapshot.Enc) {
				if me == 0 { // shared vectors, encoded once
					enc.F64s(sh.A.V)
					enc.F64s(sh.x.V)
					enc.F64s(sh.pvVal.V)
					enc.I64s(sh.pvIdx.V)
				}
				enc.I64s(s.rows.mask.V)
			})
			s.pc = gsFill
		case gsFill:
			if !w.fill(s.par.Seed) {
				return sim.StepYield
			}
			s.pc = gsBarrier1
		case gsBarrier1:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.k = 0
			s.pc = gsScan

		// Forward elimination.
		case gsScan:
			if !w.scan(s.k) {
				return sim.StepYield
			}
			s.pc = gsReduce
		case gsReduce:
			rv, ri, ok := sh.red.StepReduce(&s.rds, m, w.best, w.bestRow, parmacs.OpMaxAbs, parmacs.GaussCats)
			if !ok {
				return sim.StepYield
			}
			s.rv, s.ri = rv, ri
			s.pc = gsBarrier2
			if me == 0 {
				s.pc = gsPubVal
			}
		case gsPubVal:
			if !sh.pvVal.StepSet(m, 0, s.rv) {
				return sim.StepYield
			}
			s.pc = gsPubIdx
		case gsPubIdx:
			if !sh.pvIdx.StepSet(m, 0, s.ri) {
				return sim.StepYield
			}
			s.pc = gsBarrier2
		// Everyone waits until the write completes, then reads the published
		// pivot (hardware-speed broadcast via invalidation, with read
		// requests contending at the directory).
		case gsBarrier2:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = gsReadIdx
		case gsReadIdx:
			pidx, ok := sh.pvIdx.StepGet(m, 0)
			if !ok {
				return sim.StepYield
			}
			s.gr = int(pidx)
			s.pc = gsReadVal
		case gsReadVal:
			if _, ok := sh.pvVal.StepGet(m, 0); !ok {
				return sim.StepYield
			}
			s.pivotOfStep[s.k] = s.gr
			nd.Compute(cPivot)
			s.piv = sh.A.V[s.gr*w.width+s.k]
			s.pc = gsElim
			if me == s.gr/s.rpp {
				s.pc = gsRetire
			}
		case gsRetire:
			if !w.mask.StepSet(m, s.gr-w.lo, int64(s.k)) {
				return sim.StepYield
			}
			s.pc = gsElim
		// Eliminate, reading the pivot row directly from shared memory. No
		// trailing barrier: the next column's reduction cannot complete until
		// every processor has contributed, i.e. finished this column's
		// elimination — the reduction itself is the synchronization.
		case gsElim:
			if !w.elim(s.k, s.piv, &sh.A, s.gr*w.width) {
				return sim.StepYield
			}
			if s.k++; s.k < w.n {
				s.pc = gsScan
			} else {
				s.k = w.n - 1
				s.startBack()
			}

		// Backward substitution: owners publish unknowns into the shared x
		// vector; a barrier orders each write before the reads.
		case gsSolve:
			xk, ok := w.solve(s.k, s.gr-w.lo)
			if !ok {
				return sim.StepYield
			}
			s.xk = xk
			s.pc = gsPubX
		case gsPubX:
			if !sh.x.StepSet(m, s.k, s.xk) {
				return sim.StepYield
			}
			s.pc = gsBarrier3
		case gsBarrier3:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = gsReadX
		case gsReadX:
			xk, ok := sh.x.StepGet(m, s.k)
			if !ok {
				return sim.StepYield
			}
			s.xk = xk
			s.pc = gsFold
		case gsFold:
			if !w.fold(s.k, s.xk) {
				return sim.StepYield
			}
			if s.k--; s.k >= 0 {
				s.startBack()
			} else {
				s.pc = gsBarrier4
			}
		case gsBarrier4:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			if me != 0 {
				return sim.StepDone
			}
			s.pc = gsGather
		case gsGather:
			if !sh.x.StepReadRange(m, 0, w.n) {
				return sim.StepYield
			}
			s.out.validate(append([]float64(nil), sh.x.V...))
			return sim.StepDone
		}
	}
}

// startBack begins backward-substitution step k: the owner of the step's
// pivot row solves and publishes x[k]; everyone then meets at the barrier.
func (s *smStep) startBack() {
	s.gr = s.pivotOfStep[s.k]
	s.pc = gsBarrier3
	if s.nd.ID == s.gr/s.rpp {
		s.pc = gsSolve
	}
}
