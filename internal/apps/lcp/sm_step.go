package lcp

import (
	"math"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// lcpSMShared is the shared problem state established by node 0.
type lcpSMShared struct {
	zg    memsim.FVec // the global solution vector
	stale *memsim.StaleVec
	red   *parmacs.Reduction
	done  memsim.IVec // convergence decision published by node 0
}

// RunSM runs the synchronous shared-memory variant (LCP-SM): a single
// global solution vector in shared memory; each step every processor
// refreshes a private local copy from the global vector, sweeps against it,
// and publishes its portion back, with a reduction testing convergence —
// exactly the structure the paper describes ("processors compute their
// portion of the new solution vector into a local buffer. To update, they
// copy values from the local buffer into the global vector").
func RunSM(cfg cost.Config, par Params) *Output {
	return runSM(cfg, par, false)
}

// RunASM runs the asynchronous variant (ALCP-SM): new values are written
// directly into the global solution vector as they are computed, so other
// processors see them as soon as the coherence protocol delivers them;
// processors synchronize only every Sweeps sweeps for the convergence test.
func RunASM(cfg cost.Config, par Params) *Output {
	return runSM(cfg, par, true)
}

// runSM runs the one step machine behind both variants (smStep).
func runSM(cfg cost.Config, par Params, async bool) *Output {
	out := &Output{}
	pr := genProblem(par)
	rpp := rowsPerProc(par.N, cfg.Procs)

	var sh lcpSMShared

	out.Res = machine.NewSMStep(cfg, parmacs.RoundRobin, func(nd *machine.SMNode) func(*sim.Proc) sim.StepStatus {
		return newSMStep(nd, pr, par, rpp, async, out, &sh).step
	}).Run()

	if out.Res.Err == nil {
		zfinal := append([]float64(nil), sh.zg.V...)
		out.Z = zfinal
		out.Residual = pr.validate(zfinal)
	}
	return out
}

// Program-counter states of the LCP-SM step machine, in program order.
const (
	lsCreate = iota
	lsBarrier0
	lsWriteVals
	lsWriteCols
	lsWriteZg
	lsBarrier1
	lsZPrev
	lsRefresh
	lsSweep
	lsPubRead
	lsPubWrite
	lsNorm
	lsReduce
	lsDoneSet
	lsBarrier2
	lsDoneGet
	lsBarrier3
)

type smStep struct {
	nd    *machine.SMNode
	pr    *problem
	par   Params
	async bool
	rpp   int
	lo    int
	out   *Output
	sh    *lcpSMShared

	mvals, zloc memsim.FVec // zloc: the local copy (synchronous variant)
	zprev       memsim.FVec
	mcols       memsim.IVec

	pc     int
	stepNo int
	swp    int
	r      int
	sub    uint8
	k      int
	zi     float64
	acc    float64
	norm   float64
	total  float64

	rds parmacs.RedStep
}

// newSMStep does the host-side setup at the node's first dispatch. Node 0
// also establishes the shared vectors here; other nodes touch sh only after
// their StepWaitCreate completes, which node 0's Create must precede.
func newSMStep(nd *machine.SMNode, pr *problem, par Params, rpp int, async bool, out *Output, sh *lcpSMShared) *smStep {
	me := nd.ID
	s := &smStep{nd: nd, pr: pr, par: par, async: async, rpp: rpp, lo: me * rpp,
		out: out, sh: sh, stepNo: 1}
	if me == 0 {
		sh.zg = nd.RT.GMallocF(0, par.N)
		sh.stale = memsim.NewStaleVec(nd.P.Engine(), &sh.zg, nd.Cfg.Procs)
		sh.done = nd.RT.GMallocI(0, 1)
		sh.red = parmacs.NewReduction(nd.RT)
	}
	s.mvals = nd.AllocF(rpp * par.NNZ)
	s.mcols = nd.AllocI(rpp * par.NNZ)
	s.zloc = nd.AllocF(par.N)
	s.zprev = nd.AllocF(rpp)
	return s
}

func (s *smStep) step(p *sim.Proc) sim.StepStatus {
	nd, sh := s.nd, s.sh
	m := nd.Mem
	me := nd.ID
	par, rpp, lo := s.par, s.rpp, s.lo
	for {
		switch s.pc {
		case lsCreate:
			if me == 0 {
				nd.RT.Create(p)
			} else if !nd.RT.StepWaitCreate(p) {
				return sim.StepYield
			}
			s.pc = lsBarrier0
		case lsBarrier0:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			// Registered here, once sh is established on every node.
			nd.OnState(func(enc *snapshot.Enc) {
				if me == 0 {
					enc.F64s(sh.zg.V)
					enc.I64s(sh.done.V)
				}
				enc.F64s(s.zloc.V)
				enc.F64s(s.zprev.V)
			})
			for r := 0; r < rpp; r++ {
				gi := lo + r
				copy(s.mvals.V[r*par.NNZ:], s.pr.vals[gi])
				for k, c := range s.pr.cols[gi] {
					s.mcols.V[r*par.NNZ+k] = int64(c)
				}
				nd.Compute(int64(cSetup * par.NNZ))
			}
			s.pc = lsWriteVals
		case lsWriteVals:
			if !s.mvals.StepWriteRange(m, 0, s.mvals.Len()) {
				return sim.StepYield
			}
			s.pc = lsWriteCols
		case lsWriteCols:
			if !s.mcols.StepWriteRange(m, 0, s.mcols.Len()) {
				return sim.StepYield
			}
			s.pc = lsWriteZg
		case lsWriteZg:
			if !sh.zg.StepWriteRange(m, lo, lo+rpp) {
				return sim.StepYield
			}
			s.pc = lsBarrier1
		case lsBarrier1:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = lsZPrev
		case lsZPrev:
			for r := 0; r < rpp; r++ { // idempotent: my zg segment is stable here
				s.zprev.V[r] = sh.zg.V[lo+r]
			}
			if !s.zprev.StepWriteRange(m, 0, rpp) {
				return sim.StepYield
			}
			s.swp, s.r, s.sub = 0, 0, 0
			s.pc = lsRefresh
			if s.async {
				s.pc = lsSweep
			}
		case lsRefresh:
			for r := 0; r < rpp; r++ {
				s.zloc.V[lo+r] = sh.zg.V[lo+r]
			}
			if !s.zloc.StepWriteRange(m, lo, lo+rpp) {
				return sim.StepYield
			}
			s.pc = lsSweep
		case lsSweep:
			if !s.stepSweeps() {
				return sim.StepYield
			}
			s.pc = lsPubRead
			if s.async {
				nd.Compute(cStep)
				s.pc = lsNorm
			}
		case lsPubRead: // publish: copy the local buffer into the global vector
			if !s.zloc.StepReadRange(m, lo, lo+rpp) {
				return sim.StepYield
			}
			s.pc = lsPubWrite
		case lsPubWrite:
			sh.stale.SetRange(me, lo, s.zloc.V[lo:lo+rpp]) // idempotent: zloc is stable here
			if !sh.zg.StepWriteRange(m, lo, lo+rpp) {
				return sim.StepYield
			}
			nd.Compute(int64(rpp) * 2)
			nd.Compute(cStep)
			s.pc = lsNorm
		case lsNorm:
			// Convergence test (paper: synchronize every five iterations in
			// the asynchronous version — i.e. once per step here too). The
			// synchronous variant needs all publishes complete before the
			// next refresh; the barrier after the reduction provides that.
			if !s.zprev.StepReadRange(m, 0, rpp) {
				return sim.StepYield
			}
			norm := 0.0
			for r := 0; r < rpp; r++ {
				norm += math.Abs(sh.zg.V[lo+r] - s.zprev.V[r])
			}
			s.norm = norm
			nd.Compute(int64(rpp) * cNorm)
			s.pc = lsReduce
		case lsReduce:
			total, _, ok := sh.red.StepReduce(&s.rds, m, s.norm, 0, parmacs.OpSum, parmacs.SyncCats)
			if !ok {
				return sim.StepYield
			}
			s.total = total
			s.pc = lsDoneSet
		case lsDoneSet:
			if me == 0 {
				d := int64(0)
				if s.total < par.Tol {
					d = 1
				}
				if !sh.done.StepSet(m, 0, d) {
					return sim.StepYield
				}
			}
			s.pc = lsBarrier2
		case lsBarrier2:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = lsDoneGet
		case lsDoneGet:
			v, ok := sh.done.StepGet(m, 0)
			if !ok {
				return sim.StepYield
			}
			if v == 0 && s.stepNo < par.MaxSteps {
				s.stepNo++
				s.pc = lsZPrev
				continue
			}
			s.pc = lsBarrier3
		case lsBarrier3:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			if me == 0 {
				s.out.Steps = s.stepNo
			}
			return sim.StepDone
		}
	}
}

// stepSweeps runs the step's sweeps. The synchronous variant sweeps against
// "a local copy of the solution vector": own entries live in a private
// buffer; remote entries are read from the shared vector on demand. The
// first sweep's reads miss (each block once — the owners' publishes
// invalidated them at the end of the previous step) and later sweeps hit the
// cached snapshot, which is exactly the local-copy semantics; demand
// fetching spreads the misses through the sweep, so the directory sees
// little contention. The asynchronous variant sweeps directly against the
// global vector: every reference is a real shared access returning what the
// cache holds, invalidated afresh by each producer — the producer-consumer
// pattern the invalidation protocol handles so poorly. Either way the
// row's result is stored exactly once, after the row's last access completes.
func (s *smStep) stepSweeps() bool {
	m := s.nd.Mem
	par, lo := s.par, s.lo
	nnz := par.NNZ
	stale := s.sh.stale
	for {
		if s.r >= s.rpp {
			s.r = 0
			s.swp++
			if s.swp >= par.Sweeps {
				return true
			}
		}
		gi := lo + s.r
		switch s.sub {
		case 0:
			if !s.mvals.StepReadRange(m, s.r*nnz, (s.r+1)*nnz) {
				return false
			}
			s.sub = 1
		case 1:
			if !s.mcols.StepReadRange(m, s.r*nnz, (s.r+1)*nnz) {
				return false
			}
			s.sub = 2
		case 2:
			if s.async {
				// Values arrive with cache staleness: each read sees what
				// the cache holds, refreshed only when an invalidation
				// forced a miss.
				zi, ok := stale.StepGet(m, gi)
				if !ok {
					return false
				}
				s.zi = zi
			} else {
				s.zi = s.zloc.V[gi]
			}
			s.acc = s.pr.q[gi] + float64(s.pr.diag[gi]*s.zi)
			s.k = 0
			s.sub = 3
		case 3:
			cols := s.pr.cols[gi]
			vals := s.pr.vals[gi]
			for s.k < len(cols) {
				ci := int(cols[s.k])
				if !s.async && ci >= lo && ci < lo+s.rpp {
					s.acc += float64(vals[s.k] * s.zloc.V[ci])
					s.k++
					continue
				}
				v, ok := stale.StepGet(m, ci)
				if !ok {
					return false
				}
				s.acc += float64(vals[s.k] * v)
				s.k++
			}
			s.sub = 4
		case 4:
			nz := s.zi - par.Omega*s.acc/s.pr.diag[gi]
			if nz < 0 {
				nz = 0
			}
			if !s.async {
				s.zloc.V[gi] = nz
			} else if !stale.StepSet(m, gi, nz) {
				return false
			}
			s.nd.Compute(cRow + int64(nnz)*cElem)
			s.r++
			s.sub = 0
		}
	}
}
