package lcp

import (
	"math"
	"math/bits"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// RunMP runs the synchronous message-passing variant (LCP-MP): each
// processor keeps a full local copy of the solution vector; after the
// sweeps of a step, local copies are reconciled with log2(P) point-to-point
// butterfly exchanges across pre-established CMMD channels, and a reduction
// tests convergence. The processor count must be a power of two.
func RunMP(cfg cost.Config, shape cmmd.Shape, par Params) *Output {
	return runMP(cfg, shape, par, false)
}

// RunAMP runs the asynchronous variant (ALCP-MP): bulk updates are sent to
// every other node (a star) after each individual sweep, and applied
// whenever they arrive; processors synchronize only for the convergence
// test. Faster convergence in steps, far more communication.
func RunAMP(cfg cost.Config, shape cmmd.Shape, par Params) *Output {
	return runMP(cfg, shape, par, true)
}

// runMP runs the one step machine behind both variants (mpStep).
func runMP(cfg cost.Config, shape cmmd.Shape, par Params, async bool) *Output {
	out := &Output{}
	pr := genProblem(par)
	procs := cfg.Procs
	rpp := rowsPerProc(par.N, procs)
	if !async && procs&(procs-1) != 0 {
		// Spec.Validate rejects this before a run starts.
		panic("lcp: butterfly exchange needs a power-of-two processor count")
	}

	segs := make([][]float64, procs) // final owner segments, for validation

	out.Res = machine.NewMPStep(cfg, shape, func(nd *machine.MPNode) func(*sim.Proc) sim.StepStatus {
		return newMPStep(nd, pr, par, rpp, async, out, segs).step
	}).Run()

	// Reconstruct the global solution from the authoritative owner
	// segments and validate complementarity (skipped on an aborted run).
	if out.Res.Err == nil {
		zfinal := make([]float64, par.N)
		for p := 0; p < procs; p++ {
			copy(zfinal[p*rpp:(p+1)*rpp], segs[p])
		}
		out.Z = zfinal
		out.Residual = pr.validate(zfinal)
	}
	return out
}

// Program-counter states of the LCP-MP step machine, in program order.
const (
	lmWriteVals = iota
	lmWriteCols
	lmWriteDiag
	lmWriteQ
	lmWriteZ
	lmBarrier0
	lmZPrev
	lmSweep
	lmPublish
	lmBfly
	lmNorm
	lmReduce
	lmBcast
	lmQuiesce
	lmQuiesceDrain
	lmBarrier1
)

type mpStep struct {
	nd       *machine.MPNode
	pr       *problem
	par      Params
	async    bool
	rpp, lgP int
	lo       int
	out      *Output
	segs     [][]float64

	z, zprev     memsim.FVec
	mvals, mdiag memsim.FVec
	mq           memsim.FVec
	mcols        memsim.IVec
	bflyRecv     []*cmmd.RecvChannel

	pc     int
	stepNo int
	swp    int // sweep index within the step
	r      int // row index within the sweep
	sub    uint8
	bk     int // butterfly stage
	peer   int // star destination
	norm   float64
	done   float64

	cw   cmmd.ChanWriteStep
	poll cmmd.PollStep
	rs   cmmd.ReduceStep
	bs   cmmd.BcastStep
}

// newMPStep does the host-side setup at the node's first dispatch:
// allocations, private copies of my matrix rows with their setup charges,
// and the pre-established channels (static communication, as the paper's
// LCP-MP: "point-to-point exchanges across CMMD channels").
func newMPStep(nd *machine.MPNode, pr *problem, par Params, rpp int, async bool, out *Output, segs [][]float64) *mpStep {
	me := nd.ID
	s := &mpStep{nd: nd, pr: pr, par: par, async: async, rpp: rpp, lo: me * rpp,
		out: out, segs: segs, stepNo: 1}

	// Full local copy of the solution vector, plus the previous step's own
	// segment for the convergence norm.
	s.z = nd.AllocF(par.N)
	s.zprev = nd.AllocF(rpp)
	nd.OnState(func(enc *snapshot.Enc) {
		enc.F64s(s.z.V)
		enc.F64s(s.zprev.V)
	})
	s.mvals = nd.AllocF(rpp * par.NNZ)
	s.mcols = nd.AllocI(rpp * par.NNZ)
	s.mdiag = nd.AllocF(rpp)
	s.mq = nd.AllocF(rpp)
	for r := 0; r < rpp; r++ {
		gi := s.lo + r
		copy(s.mvals.V[r*par.NNZ:], pr.vals[gi])
		for k, c := range pr.cols[gi] {
			s.mcols.V[r*par.NNZ+k] = int64(c)
		}
		s.mdiag.V[r] = pr.diag[gi]
		s.mq.V[r] = pr.q[gi]
		nd.Compute(int64(cSetup * par.NNZ))
	}
	if async {
		// Star: one channel per peer, receiving directly into that peer's
		// segment of my local copy. Opened in peer order, so channel ids
		// agree across nodes by symmetry.
		for peer := 0; peer < nd.Procs; peer++ {
			if peer != me {
				nd.EP.OpenRecvChannelF(&s.z, peer*rpp, (peer+1)*rpp)
			}
		}
		return s
	}
	// Butterfly: at stage k I receive my partner's 2^k-proc segment.
	s.lgP = bits.Len(uint(nd.Procs)) - 1
	for k := 0; k < s.lgP; k++ {
		partner := me ^ (1 << k)
		segStart := (partner >> k) << k // in proc units
		s.bflyRecv = append(s.bflyRecv,
			nd.EP.OpenRecvChannelF(&s.z, segStart*rpp, (segStart+(1<<k))*rpp))
	}
	return s
}

func (s *mpStep) step(p *sim.Proc) sim.StepStatus {
	nd := s.nd
	m := nd.Mem
	me := nd.ID
	par, rpp, lo := s.par, s.rpp, s.lo
	for {
		switch s.pc {
		case lmWriteVals:
			if !s.mvals.StepWriteRange(m, 0, s.mvals.Len()) {
				return sim.StepYield
			}
			s.pc = lmWriteCols
		case lmWriteCols:
			if !s.mcols.StepWriteRange(m, 0, s.mcols.Len()) {
				return sim.StepYield
			}
			s.pc = lmWriteDiag
		case lmWriteDiag:
			if !s.mdiag.StepWriteRange(m, 0, rpp) {
				return sim.StepYield
			}
			s.pc = lmWriteQ
		case lmWriteQ:
			if !s.mq.StepWriteRange(m, 0, rpp) {
				return sim.StepYield
			}
			s.pc = lmWriteZ
		case lmWriteZ:
			if !s.z.StepWriteRange(m, 0, par.N) {
				return sim.StepYield
			}
			s.pc = lmBarrier0
		case lmBarrier0:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			s.pc = lmZPrev
		case lmZPrev:
			for r := 0; r < rpp; r++ { // idempotent: z stable until the sweeps
				s.zprev.V[r] = s.z.V[lo+r]
			}
			if !s.zprev.StepWriteRange(m, 0, rpp) {
				return sim.StepYield
			}
			s.swp, s.r, s.sub = 0, 0, 0
			s.pc = lmSweep
		case lmSweep:
			if !s.stepSweeps() {
				return sim.StepYield
			}
			s.pc = lmPublish
		case lmPublish:
			if !s.z.StepWriteRange(m, lo, lo+rpp) {
				return sim.StepYield
			}
			nd.Compute(cStep)
			s.bk, s.sub = 0, 0
			s.pc = lmBfly
		case lmBfly:
			if !s.async && !s.stepButterfly() {
				return sim.StepYield
			}
			s.pc = lmNorm
		case lmNorm:
			if !s.zprev.StepReadRange(m, 0, rpp) {
				return sim.StepYield
			}
			norm := 0.0
			for r := 0; r < rpp; r++ {
				norm += math.Abs(s.z.V[lo+r] - s.zprev.V[r])
			}
			s.norm = norm
			nd.Compute(int64(rpp) * cNorm)
			s.pc = lmReduce
		case lmReduce:
			total, _, ok := nd.Comm.StepReduce(&s.rs, 0, s.norm, 0, cmmd.OpSum)
			if !ok {
				return sim.StepYield
			}
			s.done = 0
			if me == 0 && total < par.Tol {
				s.done = 1
			}
			s.pc = lmBcast
		case lmBcast:
			v, ok := nd.Comm.StepBcast(&s.bs, 0, s.done)
			if !ok {
				return sim.StepYield
			}
			if v == 0 && s.stepNo < par.MaxSteps {
				s.stepNo++
				s.pc = lmZPrev
				continue
			}
			s.pc = lmBarrier1
			if s.async {
				s.pc = lmQuiesce
			}
		case lmQuiesce:
			// Drain in-flight updates so every node quiesces.
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			s.pc = lmQuiesceDrain
		case lmQuiesceDrain:
			if !nd.AM.StepDrain(&s.poll) {
				return sim.StepYield
			}
			s.pc = lmBarrier1
		case lmBarrier1:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			s.segs[me] = append([]float64(nil), s.z.V[lo:lo+rpp]...)
			if me == 0 {
				s.out.Steps = s.stepNo
			}
			return sim.StepDone
		}
	}
}

// stepSweeps runs the step's sweeps: per row, stream the matrix row from
// local memory (the solution entries it references are cache-resident — the
// paper's tiny local-miss counts confirm this working set fits), then apply
// the projected SOR update to the host-side local copy exactly once, on the
// completing access. The asynchronous variant exchanges updates at every
// sweep boundary.
func (s *mpStep) stepSweeps() bool {
	m := s.nd.Mem
	nnz := s.par.NNZ
	for {
		switch s.sub {
		case 0:
			if s.r >= s.rpp {
				s.sub = 2
				continue
			}
			if !s.mvals.StepReadRange(m, s.r*nnz, (s.r+1)*nnz) {
				return false
			}
			s.sub = 1
		case 1:
			if !s.mcols.StepReadRange(m, s.r*nnz, (s.r+1)*nnz) {
				return false
			}
			gi := s.lo + s.r
			s.z.V[gi] = s.pr.sweepRow(gi, s.z.V[gi], s.z.V, s.par.Omega)
			s.nd.Compute(cRow + int64(nnz)*cElem)
			s.r++
			s.sub = 0
		case 2:
			if s.async && !s.stepStar() {
				return false
			}
			s.r, s.sub = 0, 0
			s.swp++
			if s.swp >= s.par.Sweeps {
				return true
			}
		}
	}
}

// stepStar broadcasts my fresh segment to everyone, then applies whatever
// has arrived. Updates are serviced at sweep boundaries — the polling
// granularity of the compute loop — so a peer's values take one to two
// sweeps to take effect end-to-end.
func (s *mpStep) stepStar() bool {
	me := s.nd.ID
	for ; s.peer < s.nd.Procs; s.peer++ {
		if s.peer == me {
			continue
		}
		chID := me // my segment's channel on peer: opened in peer order, self skipped
		if me > s.peer {
			chID = me - 1
		}
		if !s.nd.EP.StepChannelWriteF(&s.cw, s.peer, chID, &s.z, s.lo, s.lo+s.rpp) {
			return false
		}
	}
	if !s.nd.AM.StepDrain(&s.poll) {
		return false
	}
	s.peer = 0
	return true
}

// stepButterfly is the log2(P) all-gather of the updated local copies: at
// each stage send my current 2^k-proc segment to the partner and wait for
// the partner's.
func (s *mpStep) stepButterfly() bool {
	nd := s.nd
	me := nd.ID
	rpp := s.rpp
	for {
		if s.bk >= s.lgP {
			return true
		}
		k := s.bk
		switch s.sub {
		case 0:
			partner := me ^ (1 << k)
			segStart := ((me >> k) << k) * rpp
			segLen := (1 << k) * rpp
			if !nd.EP.StepChannelWriteF(&s.cw, partner, k, &s.z, segStart, segStart+segLen) {
				return false
			}
			s.sub = 1
		case 1:
			if !nd.EP.StepWaitChannel(&s.poll, s.bflyRecv[k], int64(s.stepNo)) {
				return false
			}
			s.bk++
			s.sub = 0
		}
	}
}
