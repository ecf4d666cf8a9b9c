package em3d

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// smShared is the shared-memory problem state established by node 0.
type smShared struct {
	eVal, hVal []memsim.FVec // per-owner value vectors ("value fields in a separate vector")
	eIdx, hIdx []memsim.IVec // per-owner in-edge source slots (owner-major)
	eW, hW     []memsim.FVec // per-owner in-edge weights
	eCnt, hCnt []memsim.IVec // per-owner in-degree fill counters
	locks      []*parmacs.Lock
}

// RunSM runs EM3D-SM: no ghost nodes — caching supplies the temporal
// locality, with the invalidation protocol's four-message producer-consumer
// cost. policy selects gmalloc placement (RoundRobin reproduces Table 14;
// Local reproduces the Table 17 ablation). Pass a Config with a 1 MB cache
// for the Table 16 ablation. The program is a step machine (smStep) that
// the engine calls directly.
func RunSM(cfg cost.Config, policy parmacs.Policy, par Params) *Output {
	return runSM(cfg, policy, par, false)
}

// RunSMFlush runs the §5.3.4 software-flush variant the paper proposes:
// after consuming a remote value, the consumer flushes its cached copy,
// turning the producer's next two-message invalidation round into a silent
// single-message replacement. (The paper notes the benefit shrinks as the
// data set outgrows the cache, since lines are often evicted anyway.)
func RunSMFlush(cfg cost.Config, policy parmacs.Policy, par Params) *Output {
	return runSM(cfg, policy, par, true)
}

func runSM(cfg cost.Config, policy parmacs.Policy, par Params, flush bool) *Output {
	out := &Output{}
	g := genGraph(par, cfg.Procs)
	procs := cfg.Procs

	out.E = make([][]float64, procs)
	out.H = make([][]float64, procs)
	var sh smShared

	out.Res = machine.NewSMStep(cfg, policy, func(nd *machine.SMNode) func(*sim.Proc) sim.StepStatus {
		return newSMStep(nd, g, par, procs, flush, out, &sh).step
	}).Run()

	if out.Res.Err == nil {
		out.validate(g, par.Iters)
	}
	return out
}

// Program-counter states of the EM3D-SM step machine, in program order.
const (
	esCreate = iota
	esBarrier0
	esRegister
	esValWriteE
	esValWriteH
	esBarrier1
	esHalfE
	esBarrier2
	esHalfH
	esBarrier3
)

type smStep struct {
	nd    *machine.SMNode
	m     *memsim.Mem
	g     *graph
	par   Params
	procs int
	out   *Output
	sh    *smShared
	sinks []int // me then ring neighbors: registration order
	flush bool  // the §5.3.4 software-flush variant

	pc int
	it int

	rf regFrame
	lf parmacs.LockStep
	hf halfFrame
}

// newSMStep does the host-side setup at the node's first dispatch. Node 0
// also establishes the shared structures here (gmalloc places them per the
// policy) before any other node can observe them: non-zero nodes touch sh
// only after their StepWaitCreate completes, which a Create wake (a later
// quantum) must precede.
func newSMStep(nd *machine.SMNode, g *graph, par Params, procs int, flush bool, out *Output, sh *smShared) *smStep {
	np, deg := par.NodesPer, par.Degree
	me := nd.ID
	s := &smStep{nd: nd, m: nd.Mem, g: g, par: par, procs: procs, flush: flush, out: out, sh: sh,
		sinks: append([]int{me}, neighbors(me, procs)...)}
	nd.Phase(PhaseInit)
	if me == 0 {
		for p := 0; p < procs; p++ {
			sh.eVal = append(sh.eVal, nd.RT.GMallocF(p, np))
			sh.hVal = append(sh.hVal, nd.RT.GMallocF(p, np))
			sh.eIdx = append(sh.eIdx, nd.RT.GMallocI(p, np*deg))
			sh.hIdx = append(sh.hIdx, nd.RT.GMallocI(p, np*deg))
			sh.eW = append(sh.eW, nd.RT.GMallocF(p, np*deg))
			sh.hW = append(sh.hW, nd.RT.GMallocF(p, np*deg))
			sh.eCnt = append(sh.eCnt, nd.RT.GMallocI(p, np))
			sh.hCnt = append(sh.hCnt, nd.RT.GMallocI(p, np))
			sh.locks = append(sh.locks, parmacs.NewLock(nd.RT))
		}
	}
	return s
}

func (s *smStep) step(p *sim.Proc) sim.StepStatus {
	nd, m, sh := s.nd, s.m, s.sh
	np := s.par.NodesPer
	me := nd.ID
	for {
		switch s.pc {
		case esCreate:
			if me == 0 {
				nd.Compute(int64(s.procs) * 400)
				nd.RT.Create(p)
			} else if !nd.RT.StepWaitCreate(p) {
				return sim.StepYield
			}
			s.pc = esBarrier0
		case esBarrier0:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			// Registered here, once sh is established on every node:
			// snapshots taken before this quantum encode a shorter state
			// list.
			nd.OnState(func(enc *snapshot.Enc) {
				enc.F64s(sh.eVal[me].V)
				enc.F64s(sh.hVal[me].V)
				enc.I64s(sh.eCnt[me].V)
				enc.I64s(sh.hCnt[me].V)
			})
			s.pc = esRegister
		case esRegister:
			if !s.stepRegister() {
				return sim.StepYield
			}
			s.pc = esValWriteE
		case esValWriteE:
			copy(sh.eVal[me].V[:np], s.g.e0[me]) // idempotent across re-invocations
			if !sh.eVal[me].StepWriteRange(m, 0, np) {
				return sim.StepYield
			}
			s.pc = esValWriteH
		case esValWriteH:
			copy(sh.hVal[me].V[:np], s.g.h0[me])
			if !sh.hVal[me].StepWriteRange(m, 0, np) {
				return sim.StepYield
			}
			nd.Compute(int64(np) * cSetup)
			s.pc = esBarrier1
		case esBarrier1:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			// Main loop: barriers separate the half-steps and prevent a
			// processor from reading a remote value before it is computed.
			nd.Phase(PhaseMain)
			s.it = 0
			s.pc = esHalfE
		case esHalfE:
			if !s.stepSMHalf(&sh.eIdx[me], &sh.eW[me], sh.hVal, &sh.eVal[me]) {
				return sim.StepYield
			}
			s.pc = esBarrier2
		case esBarrier2:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = esHalfH
		case esHalfH:
			if !s.stepSMHalf(&sh.hIdx[me], &sh.hW[me], sh.eVal, &sh.hVal[me]) {
				return sim.StepYield
			}
			s.pc = esBarrier3
		case esBarrier3:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.it++
			if s.it < s.par.Iters {
				s.pc = esHalfE
				continue
			}
			s.out.E[me] = append([]float64(nil), sh.eVal[me].V...)
			s.out.H[me] = append([]float64(nil), sh.hVal[me].V...)
			return sim.StepDone
		}
	}
}

// regFrame is the resumable state of the out-edge registration sweep: the
// sink being processed (kind-major within each sink), the edge cursor, and
// the claimed slot held across the locked update.
type regFrame struct {
	qi   int
	kind int
	node int
	k    int
	sub  uint8
	slot int64
}

// stepRegister registers my out-edges at their sinks: for each sink (me,
// then the ring neighbors) and each kind, lock the sink processor's region,
// claim the next in-edge slot, and write the source pointer and weight with
// remote writes (paper: "remote data accesses require locks and remote
// writes because each processor updates incoming edge counts and pointers
// for remote sinks"). The source pointer packs (owner<<32 | index) — the
// simulated analogue of a pointer into the owner's value vector.
func (s *smStep) stepRegister() bool {
	np, deg := s.par.NodesPer, s.par.Degree
	m, sh := s.m, s.sh
	me := s.nd.ID
	rf := &s.rf
	for {
		if rf.qi >= len(s.sinks) {
			*rf = regFrame{}
			return true
		}
		sink := s.sinks[rf.qi]
		var ins []edge
		var idx, cnt []memsim.IVec
		var w []memsim.FVec
		if rf.kind == 0 {
			ins, idx, w, cnt = s.g.eIn[sink], sh.eIdx, sh.eW, sh.eCnt
		} else {
			ins, idx, w, cnt = s.g.hIn[sink], sh.hIdx, sh.hW, sh.hCnt
		}
		if rf.sub == 0 {
			// Advance to the next of my out-edges sinking here.
			for rf.node < np {
				if rf.k >= deg {
					rf.k = 0
					rf.node++
					continue
				}
				if int(ins[rf.node*deg+rf.k].srcProc) == me {
					break
				}
				rf.k++
			}
			if rf.node >= np {
				rf.node, rf.k = 0, 0
				rf.kind++
				if rf.kind == 2 {
					rf.kind = 0
					rf.qi++
				}
				continue
			}
			rf.sub = 1
		}
		ed := ins[rf.node*deg+rf.k]
		switch rf.sub {
		case 1:
			if !sh.locks[sink].StepAcquire(&s.lf, m) {
				return false
			}
			rf.sub = 2
		case 2:
			slot, ok := cnt[sink].StepGet(m, rf.node)
			if !ok {
				return false
			}
			rf.slot = slot
			rf.sub = 3
		case 3:
			if !cnt[sink].StepSet(m, rf.node, rf.slot+1) {
				return false
			}
			rf.sub = 4
		case 4:
			pos := rf.node*deg + int(rf.slot)
			if !idx[sink].StepSet(m, pos, int64(me)<<32|int64(ed.srcIdx)) {
				return false
			}
			rf.sub = 5
		case 5:
			pos := rf.node*deg + int(rf.slot)
			if !w[sink].StepSet(m, pos, ed.w) {
				return false
			}
			rf.sub = 6
		case 6:
			if !sh.locks[sink].StepRelease(&s.lf, m) {
				return false
			}
			s.nd.Compute(cBuildSM)
			rf.k++
			rf.sub = 0
		}
	}
}

// stepSMHalf updates this processor's dst nodes from the shared source
// value vectors, whose owner and index each edge's packed index word names.
// Local sources usually hit; remote sources take the protocol's
// invalidate-request-response round trips every iteration.
func (s *smStep) stepSMHalf(idx *memsim.IVec, w *memsim.FVec, srcVals []memsim.FVec, dst *memsim.FVec) bool {
	np, deg := s.par.NodesPer, s.par.Degree
	m := s.m
	hf := &s.hf
	for {
		switch hf.sub {
		case 0:
			if hf.i >= np {
				if s.flush {
					hf.k = 0
					hf.flushed = make(map[uint64]struct{})
					hf.sub = 4
					continue
				}
				*hf = halfFrame{}
				return true
			}
			if !idx.StepReadRange(m, hf.i*deg, (hf.i+1)*deg) {
				return false
			}
			hf.sub = 1
		case 1:
			if !w.StepReadRange(m, hf.i*deg, (hf.i+1)*deg) {
				return false
			}
			hf.k = 0
			hf.acc = 0
			hf.sub = 2
		case 2:
			if hf.k >= deg {
				hf.sub = 3
				continue
			}
			packed := idx.V[hf.i*deg+hf.k]
			owner := int(packed >> 32)
			si := int(packed & 0xFFFFFFFF)
			v, ok := srcVals[owner].StepGet(m, si)
			if !ok {
				return false
			}
			hf.acc += float64(w.V[hf.i*deg+hf.k] * v)
			hf.k++
		case 3:
			if !dst.StepSet(m, hf.i, hf.acc) {
				return false
			}
			s.nd.Compute(int64(deg)*cMac + cNode)
			hf.i++
			hf.sub = 0
		case 4:
			// Software flush (paper §5.3.4): after the half-step, drop every
			// remote block we consumed, in edge order, so the producers'
			// rewrites find no copies to invalidate (a silent replacement
			// instead of a two-message invalidation round). Deduplicated per
			// block — values are reused within the half-step.
			for ; hf.k < np*deg; hf.k++ {
				packed := idx.V[hf.k]
				owner := int(packed >> 32)
				if owner == s.nd.ID {
					continue
				}
				addr := srcVals[owner].Addr(int(packed & 0xFFFFFFFF))
				if _, ok := hf.flushed[addr>>5]; ok {
					continue
				}
				if !m.StepFlushBlock(addr) {
					return false
				}
				hf.flushed[addr>>5] = struct{}{}
			}
			*hf = halfFrame{}
			return true
		}
	}
}
