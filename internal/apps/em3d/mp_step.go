package em3d

import (
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// RunMP runs EM3D-MP: the Split-C-derived message-passing version with one
// ghost node per remote edge and bulk channel transfers between ring
// neighbors before each half-step. The program is a step machine (mpStep)
// that the engine calls directly.
func RunMP(cfg cost.Config, shape cmmd.Shape, par Params) *Output {
	out := &Output{}
	g := genGraph(par, cfg.Procs)

	out.E = make([][]float64, cfg.Procs)
	out.H = make([][]float64, cfg.Procs)

	out.Res = machine.NewMPStep(cfg, shape, func(nd *machine.MPNode) func(*sim.Proc) sim.StepStatus {
		return newMPStep(nd, g, par, cfg.Procs, out).step
	}).Run()

	// An aborted run (fault-injection starvation) leaves partial state;
	// validation only makes sense for a completed execution.
	if out.Res.Err == nil {
		out.validate(g, par.Iters)
	}
	return out
}

// gseg is one neighbor's slot range in a ghost vector.
type gseg struct{ start, len int }

// mpLayout is the host-side graph layout: ghost segments (one slot per
// remote in-edge, grouped by neighbor) and send lists (the local value
// indices to ship, one per remote edge at the neighbor, in its canonical
// order) per neighbor, by kind (0: H sources feeding the E update, 1: E
// sources feeding the H update).
type mpLayout struct {
	segs     [2]map[int]*gseg
	counts   [2]int
	sendList [2]map[int][]int32
}

// ins2 returns proc d's in-edge lists by kind.
func ins2(g *graph, d int) [2][]edge { return [2][]edge{g.eIn[d], g.hIn[d]} }

func layoutMP(g *graph, me int, nbs []int) *mpLayout {
	l := &mpLayout{segs: [2]map[int]*gseg{{}, {}}, sendList: [2]map[int][]int32{{}, {}}}
	ins := ins2(g, me)
	for kind := 0; kind < 2; kind++ {
		for _, d := range nbs {
			sg := &gseg{start: l.counts[kind]}
			for _, ed := range ins[kind] {
				if int(ed.srcProc) == d {
					sg.len++
				}
			}
			l.counts[kind] += sg.len
			l.segs[kind][d] = sg
		}
		for _, d := range nbs {
			var lst []int32
			for _, ed := range ins2(g, d)[kind] {
				if int(ed.srcProc) == me {
					lst = append(lst, ed.srcIdx)
				}
			}
			l.sendList[kind][d] = lst
		}
	}
	return l
}

// wireEdges fills the in-edge metadata host arrays: local sources index the
// value vector directly; remote sources index their per-edge ghost slot.
func (l *mpLayout) wireEdges(g *graph, me, np int, nbs []int, idxV [2]*memsim.IVec, wV [2]*memsim.FVec) {
	ins := ins2(g, me)
	for kind := 0; kind < 2; kind++ {
		next := map[int]int{}
		for _, d := range nbs {
			next[d] = l.segs[kind][d].start
		}
		for i, ed := range ins[kind] {
			if int(ed.srcProc) == me {
				idxV[kind].V[i] = int64(ed.srcIdx)
			} else {
				slot := next[int(ed.srcProc)]
				next[int(ed.srcProc)]++
				idxV[kind].V[i] = int64(np + slot)
			}
			wV[kind].V[i] = ed.w
		}
	}
}

// chanIDOn computes the id of my ghost segment's channel on neighbor d
// (channels open in kind-major, neighbor-sorted order on every node).
func chanIDOn(d, kind, me, procs int) int {
	dn := neighbors(d, procs)
	for i, q := range dn {
		if q == me {
			return kind*len(dn) + i
		}
	}
	panic("em3d: not a neighbor")
}

// Program-counter states of the EM3D-MP step machine, in program order.
const (
	emWireIdx = iota
	emWireW
	emInfoPost
	emInfoSend
	emInfoWait
	emInfoRead1
	emInfoRead2
	emValWriteE
	emValWriteH
	emShipH
	emBarrier0
	emWaitH
	emHalfE
	emGatherE
	emWaitE
	emHalfH
	emGatherH
	emBarrier1
)

type mpStep struct {
	nd    *machine.MPNode
	m     *memsim.Mem
	g     *graph
	par   Params
	procs int
	out   *Output
	nbs   []int
	lay   *mpLayout

	eVal, hVal     memsim.FVec
	eIdx, hIdx     memsim.IVec
	eW, hW         memsim.FVec
	ghostH, ghostE memsim.FVec
	edgeInfo       memsim.FVec
	sendBuf        [2]map[int]memsim.FVec
	recvCh         [2]map[int]*cmmd.RecvChannel
	infoCh         []*cmmd.RecvChannel

	pc   int
	kind int // wiring loop
	ni   int // neighbor loop index
	it   int // main-loop iteration

	// Library-call frames, one live at a time (the program is serial).
	recv cmmd.RecvStep
	send cmmd.SendStep
	poll cmmd.PollStep
	cw   cmmd.ChanWriteStep
	gf   gatherFrame
	hf   halfFrame
}

// newMPStep does the host-side setup at the node's first dispatch:
// allocation, graph layout, wiring values, and channel registration (ghost
// receive channels open in canonical order — kind-major, neighbor-sorted —
// so channel ids agree across nodes by symmetry). No cycles are charged
// here; the step function issues every simulated operation.
func newMPStep(nd *machine.MPNode, g *graph, par Params, procs int, out *Output) *mpStep {
	np, deg := par.NodesPer, par.Degree
	me := nd.ID
	s := &mpStep{nd: nd, m: nd.Mem, g: g, par: par, procs: procs, out: out,
		nbs: neighbors(me, procs), it: 1}
	s.lay = layoutMP(g, me, s.nbs)

	s.eVal = nd.AllocF(np)
	s.hVal = nd.AllocF(np)
	s.eIdx = nd.AllocI(np * deg)
	s.eW = nd.AllocF(np * deg)
	s.hIdx = nd.AllocI(np * deg)
	s.hW = nd.AllocF(np * deg)
	s.ghostH = nd.AllocF(s.lay.counts[0] + 1)
	s.ghostE = nd.AllocF(s.lay.counts[1] + 1)
	nd.OnState(func(enc *snapshot.Enc) {
		enc.F64s(s.eVal.V)
		enc.F64s(s.hVal.V)
		enc.F64s(s.ghostH.V)
		enc.F64s(s.ghostE.V)
	})

	s.lay.wireEdges(g, me, np, s.nbs,
		[2]*memsim.IVec{&s.eIdx, &s.hIdx}, [2]*memsim.FVec{&s.eW, &s.hW})

	s.sendBuf = [2]map[int]memsim.FVec{{}, {}}
	for kind := 0; kind < 2; kind++ {
		for _, d := range s.nbs {
			s.sendBuf[kind][d] = nd.AllocF(len(s.lay.sendList[kind][d]) + 1)
		}
	}

	s.recvCh = [2]map[int]*cmmd.RecvChannel{{}, {}}
	for kind, gv := range []*memsim.FVec{&s.ghostH, &s.ghostE} {
		for _, d := range s.nbs {
			sg := s.lay.segs[kind][d]
			lo, hi := sg.start, sg.start+sg.len
			if sg.len == 0 {
				hi = lo + 1 // placeholder; never written
			}
			s.recvCh[kind][d] = nd.EP.OpenRecvChannelF(gv, lo, hi)
		}
	}

	s.edgeInfo = nd.AllocF(2*deg*np + 2)

	nd.Phase(PhaseInit)
	return s
}

// infoWords returns the edge-information transfer sizes with neighbor d:
// incoming (two words per remote in-edge sourced at d) and outgoing (two
// words per remote edge of d's sourced at me).
func (s *mpStep) infoWords(d int) (in, outw int) {
	in = 2 * (s.lay.segs[0][d].len + s.lay.segs[1][d].len)
	outw = 2 * (len(s.lay.sendList[0][d]) + len(s.lay.sendList[1][d]))
	return in, outw
}

func (s *mpStep) step(p *sim.Proc) sim.StepStatus {
	nd, m := s.nd, s.m
	np, deg := s.par.NodesPer, s.par.Degree
	me := nd.ID
	idxV := [2]*memsim.IVec{&s.eIdx, &s.hIdx}
	wV := [2]*memsim.FVec{&s.eW, &s.hW}
	for {
		switch s.pc {
		case emWireIdx:
			if !idxV[s.kind].StepWriteRange(m, 0, np*deg) {
				return sim.StepYield
			}
			s.pc = emWireW
		case emWireW:
			if !wV[s.kind].StepWriteRange(m, 0, np*deg) {
				return sim.StepYield
			}
			nd.Compute(int64(np*deg) * cBuildMP / 2)
			s.kind++
			if s.kind < 2 {
				s.pc = emWireIdx
			} else {
				s.ni = 0
				s.pc = emInfoPost
			}
		case emInfoPost:
			// Exchange edge information between each pair of processors in a
			// single bulk message (paper §5.3.2), referenced twice on the
			// receiving side. The receives are posted first — a blocking
			// send on both sides of each pair would deadlock the handshake.
			if s.ni >= len(s.nbs) {
				s.ni = 0
				s.pc = emInfoSend
				continue
			}
			d := s.nbs[s.ni]
			in, _ := s.infoWords(d)
			ch, ok := nd.EP.StepRecvPost(&s.recv, 100+d, &s.edgeInfo, 0, in)
			if !ok {
				return sim.StepYield
			}
			s.infoCh = append(s.infoCh, ch)
			s.ni++
		case emInfoSend:
			if s.ni >= len(s.nbs) {
				s.ni = 0
				s.pc = emInfoWait
				continue
			}
			d := s.nbs[s.ni]
			_, outw := s.infoWords(d)
			if !nd.EP.StepSendBlock(&s.send, d, 100+me, &s.edgeInfo, 0, outw) {
				return sim.StepYield
			}
			s.ni++
		case emInfoWait:
			if s.ni >= len(s.nbs) {
				// Host-side initial values land here, not at setup: they are
				// registered state, so moving them changes the image of
				// every checkpoint taken before this point.
				copy(s.eVal.V, s.g.e0[me])
				copy(s.hVal.V, s.g.h0[me])
				s.pc = emValWriteE
				continue
			}
			if !nd.EP.StepWaitChannel(&s.poll, s.infoCh[s.ni], 1) {
				return sim.StepYield
			}
			s.pc = emInfoRead1
		case emInfoRead1: // in-degree pass
			in, _ := s.infoWords(s.nbs[s.ni])
			if !s.edgeInfo.StepReadRange(m, 0, in) {
				return sim.StepYield
			}
			s.pc = emInfoRead2
		case emInfoRead2: // pointer pass
			in, _ := s.infoWords(s.nbs[s.ni])
			if !s.edgeInfo.StepReadRange(m, 0, in) {
				return sim.StepYield
			}
			nd.Compute(int64(in) * 6)
			s.ni++
			s.pc = emInfoWait
		case emValWriteE:
			if !s.eVal.StepWriteRange(m, 0, np) {
				return sim.StepYield
			}
			s.pc = emValWriteH
		case emValWriteH:
			if !s.hVal.StepWriteRange(m, 0, np) {
				return sim.StepYield
			}
			nd.Compute(int64(np) * cSetup)
			s.ni = 0
			s.pc = emShipH
		case emShipH: // initial H ghosts for iteration 1's E update
			if s.ni >= len(s.nbs) {
				s.pc = emBarrier0
				continue
			}
			if !s.stepGatherSend(0, &s.hVal, s.nbs[s.ni]) {
				return sim.StepYield
			}
			s.ni++
		case emBarrier0:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			nd.Phase(PhaseMain)
			s.ni = 0
			s.pc = emWaitH
		case emWaitH:
			if s.ni >= len(s.nbs) {
				s.pc = emHalfE
				continue
			}
			d := s.nbs[s.ni]
			if s.lay.segs[0][d].len > 0 {
				if !nd.EP.StepWaitChannel(&s.poll, s.recvCh[0][d], int64(s.it)) {
					return sim.StepYield
				}
			}
			s.ni++
		case emHalfE:
			if !s.stepHalf(&s.eIdx, &s.eW, &s.hVal, &s.ghostH, &s.eVal) {
				return sim.StepYield
			}
			s.ni = 0
			s.pc = emGatherE
		case emGatherE:
			if s.ni >= len(s.nbs) {
				s.ni = 0
				s.pc = emWaitE
				continue
			}
			if !s.stepGatherSend(1, &s.eVal, s.nbs[s.ni]) {
				return sim.StepYield
			}
			s.ni++
		case emWaitE:
			if s.ni >= len(s.nbs) {
				s.pc = emHalfH
				continue
			}
			d := s.nbs[s.ni]
			if s.lay.segs[1][d].len > 0 {
				if !nd.EP.StepWaitChannel(&s.poll, s.recvCh[1][d], int64(s.it)) {
					return sim.StepYield
				}
			}
			s.ni++
		case emHalfH:
			if !s.stepHalf(&s.hIdx, &s.hW, &s.eVal, &s.ghostE, &s.hVal) {
				return sim.StepYield
			}
			if s.it < s.par.Iters {
				s.ni = 0
				s.pc = emGatherH
			} else {
				s.pc = emBarrier1
			}
		case emGatherH:
			if s.ni >= len(s.nbs) {
				s.it++
				s.ni = 0
				s.pc = emWaitH
				continue
			}
			if !s.stepGatherSend(0, &s.hVal, s.nbs[s.ni]) {
				return sim.StepYield
			}
			s.ni++
		case emBarrier1:
			if !nd.EP.StepBarrier() {
				return sim.StepYield
			}
			s.out.E[me] = append([]float64(nil), s.eVal.V...)
			s.out.H[me] = append([]float64(nil), s.hVal.V...)
			return sim.StepDone
		}
	}
}

// gatherFrame is the resumable state of one stepGatherSend.
type gatherFrame struct {
	sub uint8
	i   int
}

// stepGatherSend collects the listed values into the send buffer (one
// simulated load + gather charge per element), writes the buffer through
// the cache, and streams it to d in one channel write.
func (s *mpStep) stepGatherSend(kind int, vals *memsim.FVec, d int) bool {
	lst := s.lay.sendList[kind][d]
	if len(lst) == 0 {
		return true
	}
	buf := s.sendBuf[kind][d]
	gf := &s.gf
	for {
		switch gf.sub {
		case 0:
			if gf.i >= len(lst) {
				gf.sub = 1
				continue
			}
			v, ok := vals.StepGet(s.m, int(lst[gf.i]))
			if !ok {
				return false
			}
			buf.V[gf.i] = v
			s.nd.Compute(cGather)
			gf.i++
		case 1:
			if !buf.StepWriteRange(s.m, 0, len(lst)) {
				return false
			}
			gf.sub = 2
		case 2:
			if !s.nd.EP.StepChannelWriteF(&s.cw, d,
				chanIDOn(d, kind, s.nd.ID, s.procs), &buf, 0, len(lst)) {
				return false
			}
			*gf = gatherFrame{}
			return true
		}
	}
}

// halfFrame is the resumable state of one stepHalf or stepSMHalf.
type halfFrame struct {
	sub  uint8
	i, k int
	acc  float64
	// flushed is the software-flush pass's per-half-step set of blocks
	// already dropped (EM3D-SM flush variant only; nil otherwise).
	flushed map[uint64]struct{}
}

// stepHalf updates dst: per node, load the edge metadata, accumulate the
// weighted source values — read from the local value vector or the ghost
// vector: "ghost nodes make remote and local data accesses uniform" — and
// store the result.
func (s *mpStep) stepHalf(idx *memsim.IVec, w *memsim.FVec, src, ghost, dst *memsim.FVec) bool {
	np, deg := s.par.NodesPer, s.par.Degree
	m := s.m
	hf := &s.hf
	for {
		switch hf.sub {
		case 0:
			if hf.i >= np {
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
			si := int(idx.V[hf.i*deg+hf.k])
			var v float64
			var ok bool
			if si < np {
				v, ok = src.StepGet(m, si)
			} else {
				v, ok = ghost.StepGet(m, si-np)
			}
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
		}
	}
}
