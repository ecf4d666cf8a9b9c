package cmmd

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The CMMD library calls, written once as phase machines that never suspend
// the caller. The caller holds the frame and, on a false ("not done")
// return, gives up the processor and re-invokes the same call with the same
// frame and arguments — a step processor by returning sim.StepYield, the
// blocking forms in endpoint.go and collective.go as coroutine drivers,
// `for !x.StepFoo(&frame, ...) { p.Yield() }`. Everything below the library
// (polling, handler dispatch, the reliable transport) is the am package's
// one poll machine; this file adds the library's own charges and the two
// handlers that touch simulated memory or the network, registered as
// am.StepHandlers so either processor form can run them.

// PollStep is the frame of one poll-until wait (am.StepPollUntil).
type PollStep = am.PollStep

// stepPoll polls the network until cond() holds, aborting the run on a
// dispatch error. cond must read host state only (channel completion
// counts, grant queues, collective fold state).
func (ep *Endpoint) stepPoll(ps *PollStep, cond func() bool) bool {
	done, err := ep.AM.StepPollUntil(ps, cond)
	if err != nil {
		ep.P.Fail(err)
	}
	return done
}

// barrierStep is the frame of the reliable-transport barrier: the entry
// flush, then the polling wait with one service poll per quantum.
type barrierStep struct {
	flushed bool
	poll    PollStep
	wait    sim.ServiceWait
	service func() bool
}

// StepBarrier is the one implementation of Barrier. Its frame lives in the
// endpoint: a node is in one barrier at a time.
func (ep *Endpoint) StepBarrier() bool {
	rel := ep.AM.Rel()
	if rel == nil {
		return ep.Bar.StepWait(ep.P, stats.BarrierWait)
	}
	bs := ep.bar
	if bs == nil {
		bs = &barrierStep{}
		bs.service = func() bool { return rel.StepService(&bs.poll) }
		ep.bar = bs
	}
	if !bs.flushed {
		if !rel.StepFlush(&bs.poll) {
			return false
		}
		bs.flushed = true
	}
	if !ep.Bar.StepWaitService(ep.P, &bs.wait, stats.BarrierWait, bs.service) {
		return false
	}
	bs.flushed = false
	return true
}

// StepWaitChannel polls until the channel has completed at least n
// transfers.
func (ep *Endpoint) StepWaitChannel(ps *PollStep, ch *RecvChannel, n int64) bool {
	return ep.stepPoll(ps, func() bool { return ch.completions >= n })
}

// onData is the data-packet handler: it stores the payload words into the
// channel's buffer (through the cache — library misses are real) and counts
// transfer progress.
func (ep *Endpoint) onData(_ *am.HandlerStep, pkt *ni.Packet) bool {
	ch := ep.recvCh[int(pkt.Args[0])]
	at := ch.lo + int(pkt.Args[1])
	if !ch.vec.StepWriteRange(ep.Mem, at, at+pkt.NWords) {
		return false
	}
	for i, w := range pkt.Payload() {
		ch.vec.V[at+i] = math.Float64frombits(w)
	}
	ch.gotWords += pkt.NWords
	if ch.gotWords > ch.expectWords {
		panic(fmt.Sprintf("cmmd: node %d channel %d overrun", ep.Self, ch.ID))
	}
	if ch.gotWords == ch.expectWords {
		ch.gotWords = 0
		ch.completions++
	}
	return true
}

// ChanWriteStep is the resumable state of one StepChannelWriteF: the word
// cursor and the packet staged between its memory load and its injection.
type ChanWriteStep struct {
	phase uint8
	off   int
	pkt   ni.Packet
	send  am.SendStep
}

// StepChannelWriteF is the one implementation of ChannelWriteF. The payload
// words are read from the vector as each packet is staged, not copied up
// front. With a transport attached a send under a full window services the
// network, so data handlers can run between packets: a caller must not send
// from a range it is concurrently receiving into (no application does).
func (ep *Endpoint) StepChannelWriteF(cs *ChanWriteStep, dst, chID int, vec *memsim.FVec, lo, hi int) bool {
	p := ep.P
	per := elemsPerPacket(ep.Cfg, vec.ElemBytes)
	for {
		switch cs.phase {
		case 0:
			if !p.StepInteract() {
				return false
			}
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			p.Acct.Add(stats.CntChannelWrites, 1)
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			cs.off = 0
			cs.phase = 1
		case 1:
			if cs.off >= hi-lo {
				p.PopMode()
				cs.phase = 0
				return true
			}
			end := cs.off + per
			if end > hi-lo {
				end = hi - lo
			}
			// The library loads the payload from memory, then injects it.
			if !ep.Mem.StepReadRange(vec.Addr(lo+cs.off), (end-cs.off)*vec.ElemBytes) {
				return false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDPerPacket)
			cs.pkt = ni.Packet{
				Dst: dst, Tag: ep.hData,
				Args:      [4]uint64{uint64(chID), uint64(cs.off)},
				DataBytes: (end - cs.off) * vec.ElemBytes,
				NWords:    end - cs.off,
			}
			for i := cs.off; i < end; i++ {
				cs.pkt.Words[i-cs.off] = math.Float64bits(vec.V[lo+i])
			}
			cs.phase = 2
		case 2:
			if !ep.AM.StepSendPacket(&cs.send, &cs.pkt) {
				return false
			}
			cs.off += per
			cs.phase = 1
		}
	}
}

// --- High-level send/receive (RTS/CTS handshake) ---

// stepGrant answers src's request-to-send of words elements, matched with
// receive channel ch, with the channel id to stream to (a CTS message).
func (ep *Endpoint) stepGrant(rs *am.ReqStep, src, words int, ch *RecvChannel) bool {
	if words != ch.expectWords {
		panic(fmt.Sprintf("cmmd: node %d: send of %d words to recv of %d",
			ep.Self, words, ch.expectWords))
	}
	return ep.AM.StepRequest(rs, src, ep.hCTS, [4]uint64{uint64(ch.ID)}, 0, nil)
}

// onRTS queues or answers a sender's request-to-send. hs.Arg holds the
// matched channel (id+1) while the grant is being sent.
func (ep *Endpoint) onRTS(hs *am.HandlerStep, pkt *ni.Packet) bool {
	tag, words := int(pkt.Args[0]), int(pkt.Args[1])
	if hs.Arg == 0 {
		chs := ep.postedRecvs[tag]
		if len(chs) == 0 {
			ep.pendingRTS[tag] = append(ep.pendingRTS[tag], rts{src: pkt.Src, words: words})
			return true
		}
		ep.postedRecvs[tag] = chs[1:]
		hs.Arg = uint64(chs[0].ID) + 1
	}
	if !ep.stepGrant(&hs.Req, pkt.Src, words, ep.recvCh[hs.Arg-1]) {
		return false
	}
	hs.Arg = 0
	return true
}

// onCTS records a clear-to-send grant for a pending send.
func (ep *Endpoint) onCTS(pkt *ni.Packet) {
	ep.ctsGrants[pkt.Src] = append(ep.ctsGrants[pkt.Src], int(pkt.Args[0]))
}

// RecvStep is the resumable state of one StepRecvPost: the opened channel
// and, when a sender was already waiting, its request being granted.
type RecvStep struct {
	ch       *RecvChannel
	granting bool
	from     rts
	req      am.ReqStep
}

// StepRecvPost is the one implementation of RecvPost; the channel is valid
// only when done.
func (ep *Endpoint) StepRecvPost(rs *RecvStep, tag int, vec *memsim.FVec, lo, hi int) (*RecvChannel, bool) {
	p := ep.P
	if rs.ch == nil {
		if !p.StepInteract() {
			return nil, false
		}
		p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
		p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
		rs.ch = ep.OpenRecvChannelF(vec, lo, hi)
		if pend := ep.pendingRTS[tag]; len(pend) > 0 {
			ep.pendingRTS[tag] = pend[1:]
			rs.from, rs.granting = pend[0], true
		} else {
			ep.postedRecvs[tag] = append(ep.postedRecvs[tag], rs.ch)
		}
	}
	if rs.granting && !ep.stepGrant(&rs.req, rs.from.src, rs.from.words, rs.ch) {
		return nil, false
	}
	ch := rs.ch
	rs.ch, rs.granting = nil, false
	p.PopMode()
	return ch, true
}

// SendStep is the resumable state of one StepSendBlock: the RTS handshake,
// the poll for the CTS grant, and the channel write.
type SendStep struct {
	phase uint8
	chID  int
	req   am.ReqStep
	poll  PollStep
	cw    ChanWriteStep
}

// StepSendBlock is the one implementation of SendBlock.
func (ep *Endpoint) StepSendBlock(ss *SendStep, dst, tag int, vec *memsim.FVec, lo, hi int) bool {
	p := ep.P
	for {
		switch ss.phase {
		case 0:
			if !p.StepInteract() {
				return false
			}
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			ss.phase = 1
		case 1:
			if !ep.AM.StepRequest(&ss.req, dst, ep.hRTS, [4]uint64{uint64(tag), uint64(hi - lo)}, 0, nil) {
				return false
			}
			p.PopMode()
			ss.phase = 2
		case 2:
			if !ep.stepPoll(&ss.poll, func() bool { return len(ep.ctsGrants[dst]) > 0 }) {
				return false
			}
			grants := ep.ctsGrants[dst]
			ss.chID = grants[0]
			ep.ctsGrants[dst] = grants[1:]
			ss.phase = 3
		case 3:
			if !ep.StepChannelWriteF(&ss.cw, dst, ss.chID, vec, lo, hi) {
				return false
			}
			ss.phase = 0
			return true
		}
	}
}

// --- collectives ---

// chargeScalarSend pays the library-call overhead of one collective
// control/value message, ahead of its Request (the charge carries no
// Interact of its own). The paper's tuning progression matters here: the
// flat and binary configurations transmitted with CMMD-level sends (full
// channel setup per message), while the final lop-sided version drops to
// raw active messages — "active messages also help reduce this latency".
func (c *Comm) chargeScalarSend() {
	if c.topo.Shape != LopSided {
		c.ep.P.ChargeStall(stats.LibComp, c.ep.Cfg.CMMDCallCycles)
	}
}

// ReduceStep is the resumable state of one Comm.StepReduce.
type ReduceStep struct {
	phase  uint8
	seq    int64
	parent int
	nch    int
	st     *redState
	val    float64
	idx    int64
	req    am.ReqStep
	poll   PollStep
}

// StepReduce is the one implementation of Comm.Reduce. The contributed
// (val, idx) are latched on the first call; the result is valid only when
// done.
func (c *Comm) StepReduce(rs *ReduceStep, root int, val float64, idx int64, op ReduceOp) (float64, int64, bool) {
	ep := c.ep
	p := ep.P
	for {
		switch rs.phase {
		case 0:
			op.Check(p)
			if !p.StepInteract() {
				return 0, 0, false
			}
			rs.val, rs.idx = val, idx
			if ep.Cfg.HWCombining {
				// Hardware-combining ablation: deposit the contribution at
				// the network port and stall until the combined result
				// returns, a fixed latency after the last depositor. No tree
				// ascent, no per-hop send/receive overhead; broadcasts still
				// use the software trees, so the ablation isolates reduction
				// cost only.
				p.ChargeStall(stats.NetAccess, ep.Cfg.NIWriteTagDest+ep.Cfg.NISendCycles)
				rs.phase = 3
				continue
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
			rs.seq = c.redSeq
			c.redSeq++
			vr := c.vrank(ep.Self, root)
			rs.parent, rs.nch = c.topo.scalar.parent[vr], len(c.topo.scalar.children(vr))
			st := c.redState(rs.seq)
			if st.has {
				st.val, st.idx = op.Combine(st.val, st.idx, val, idx)
			} else {
				st.val, st.idx, st.has = val, idx, true
			}
			rs.st = st
			rs.phase = 1
		case 1:
			if !ep.stepPoll(&rs.poll, func() bool { return rs.st.n >= rs.nch }) {
				return 0, 0, false
			}
			rs.val, rs.idx = rs.st.val, rs.st.idx
			delete(c.red, rs.seq)
			*rs.st = redState{}
			c.redFree = append(c.redFree, rs.st)
			rs.st = nil
			if rs.parent < 0 {
				rs.phase = 0
				return rs.val, rs.idx, true
			}
			c.chargeScalarSend()
			rs.phase = 2
		case 2:
			if !ep.AM.StepRequest(&rs.req, c.actual(rs.parent, root), c.hUp,
				[4]uint64{uint64(rs.seq), math.Float64bits(rs.val), uint64(rs.idx), uint64(op)},
				memsim.WordBytes, nil) {
				return 0, 0, false
			}
			rs.phase = 0
			return 0, 0, true
		case 3:
			v, i, done := ep.Bar.StepCombine(p, stats.LibComp, op, rs.val, rs.idx)
			if !done {
				return 0, 0, false
			}
			rs.phase = 0
			if ep.Self != root {
				return 0, 0, true
			}
			return v, i, true
		}
	}
}

// BcastStep is the resumable state of one Comm.StepBcast or StepBcastPair.
type BcastStep struct {
	phase    uint8
	seq      int64
	ci       int
	val      float64
	idx      int64
	children []int // the node's child list in the machine's Topology
	req      am.ReqStep
	poll     PollStep
}

// VecStep is the resumable state of one Comm.StepBcastVecF: the stream's
// place in the vector tree, how much of it has been stored here, the range
// being forwarded, and the one packet staged between its memory load and its
// injection to each child in turn.
type VecStep struct {
	phase    uint8
	seq      int64
	parent   int
	children []int // the node's child list in the machine's vector tree
	done     int   // stream words stored here (all of them at the root)
	off, end int   // forward cursor and bound; [off, end) is also the arrival being stored
	ci       int   // next child the staged packet goes to
	pkt      ni.Packet
	send     am.SendStep
	poll     PollStep
}

// Phases of StepBcastVecF.
const (
	vEntry   uint8 = iota // entry Interact, entry and per-child charges
	vForward              // stage the next packet of [off, end), or move on
	vCharge               // per-packet library charge for child ci
	vInject               // send the staged packet to child ci
	vPoll                 // wait for words beyond done
	vStore                // store the arrived words [off, end)
)

// StepBcastVecF is the one implementation of the vector broadcast: elements
// [lo, hi) of vec go from root to every node down the machine's vector tree
// (the pivot-row broadcasts of Gauss-MP: "active messages and channels").
// The stream is pipelined: interior nodes forward each packet as it arrives
// rather than waiting for the whole vector, so the cost of tree depth is
// latency, not repeated store-and-forward of the full row. Each packet is
// interleaved across the children, so all subtrees progress together. The
// tree is binary when the shape is lop-sided (see vecShape), and then the
// stream runs through pre-established virtual channels, whose per-use cost
// is far below a full CMMD send setup. Arrivals are written to vec.V exactly
// once, on the completing store.
func (c *Comm) StepBcastVecF(vs *VecStep, root int, vec *memsim.FVec, lo, hi int) bool {
	ep := c.ep
	p := ep.P
	n := hi - lo
	per := elemsPerPacket(ep.Cfg, vec.ElemBytes)
	for {
		switch vs.phase {
		case vEntry:
			if !p.StepInteract() {
				return false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
			vs.seq = c.vecSeq
			c.vecSeq++
			vr := c.vrank(ep.Self, root)
			vs.parent, vs.children = c.topo.vec.parent[vr], c.topo.vec.children(vr)
			// Library mode holds across the whole call, polls included.
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			perChild := ep.Cfg.CMMDCallCycles
			if c.topo.Shape == LopSided {
				perChild = ep.Cfg.CollectiveEntry // channel already set up; just arm it
			}
			for range vs.children {
				p.Acct.Add(stats.CntChannelWrites, 1)
				p.ChargeStall(stats.LibComp, perChild)
			}
			vs.done, vs.off, vs.end = 0, 0, 0
			if vs.parent < 0 {
				vs.done, vs.end = n, n // the root forwards the whole vector
			}
			vs.phase = vForward
		case vForward:
			if len(vs.children) == 0 || vs.off >= vs.end {
				if vs.done < n {
					vs.phase = vPoll
					continue
				}
				if st := c.vec[vs.seq]; st != nil {
					delete(c.vec, vs.seq)
					st.got = 0
					c.vecFree = append(c.vecFree, st)
				}
				p.PopMode()
				vs.children = nil
				vs.phase = vEntry
				return true
			}
			b := min(vs.off+per, vs.end)
			if !ep.Mem.StepReadRange(vec.Addr(lo+vs.off), (b-vs.off)*vec.ElemBytes) {
				return false
			}
			vs.pkt = ni.Packet{
				Tag:       c.hVec,
				Args:      [4]uint64{uint64(vs.seq), uint64(vs.off), uint64(n)},
				DataBytes: (b - vs.off) * vec.ElemBytes,
				NWords:    b - vs.off,
			}
			for i := vs.off; i < b; i++ {
				vs.pkt.Words[i-vs.off] = math.Float64bits(vec.V[lo+i])
			}
			vs.ci = 0
			vs.phase = vCharge
		case vCharge:
			if vs.ci == len(vs.children) {
				vs.off += per
				vs.phase = vForward
				continue
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDPerPacket)
			vs.pkt.Dst = c.actual(vs.children[vs.ci], root)
			vs.phase = vInject
		case vInject:
			if !ep.AM.StepSendPacket(&vs.send, &vs.pkt) {
				return false
			}
			vs.ci++
			vs.phase = vCharge
		case vPoll:
			if !ep.stepPoll(&vs.poll, func() bool {
				st := c.vec[vs.seq]
				return st != nil && st.got > vs.done
			}) {
				return false
			}
			vs.off, vs.end = vs.done, c.vec[vs.seq].got
			vs.phase = vStore
		case vStore:
			if !ep.Mem.StepWriteRange(vec.Addr(lo+vs.off), (vs.end-vs.off)*vec.ElemBytes) {
				return false
			}
			words := c.vec[vs.seq].words
			for i := vs.off; i < vs.end; i++ {
				vec.V[lo+i] = math.Float64frombits(words[i])
			}
			vs.done = vs.end
			vs.phase = vForward
		}
	}
}

// StepBcast is the one implementation of Comm.Bcast; the value is valid
// only when done.
func (c *Comm) StepBcast(bs *BcastStep, root int, val float64) (float64, bool) {
	v, _, done := c.stepBcastPair(bs, root, val, 0, memsim.WordBytes)
	return v, done
}

// StepBcastPair broadcasts a (value, index) pair in a single message —
// Gauss's pivot announcement carries the pivot value and the owning global
// row. Both are valid only when done.
func (c *Comm) StepBcastPair(bs *BcastStep, root int, val float64, idx int64) (float64, int64, bool) {
	return c.stepBcastPair(bs, root, val, idx, 2*memsim.WordBytes)
}

func (c *Comm) stepBcastPair(bs *BcastStep, root int, val float64, idx int64, dataBytes int) (float64, int64, bool) {
	ep := c.ep
	p := ep.P
	for {
		switch bs.phase {
		case 0:
			if !p.StepInteract() {
				return 0, 0, false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
			bs.seq = c.bcSeq
			c.bcSeq++
			vr := c.vrank(ep.Self, root)
			bs.children, bs.ci = c.topo.scalar.children(vr), 0
			bs.val, bs.idx = val, idx
			if c.topo.scalar.parent[vr] >= 0 {
				bs.phase = 1
			} else {
				delete(c.bc, bs.seq)
				bs.phase = 2
			}
		case 1:
			if !ep.stepPoll(&bs.poll, func() bool {
				st := c.bc[bs.seq]
				return st != nil && st.has
			}) {
				return 0, 0, false
			}
			st := c.bc[bs.seq]
			bs.val, bs.idx = st.val, st.idx
			delete(c.bc, bs.seq)
			*st = bcState{}
			c.bcFree = append(c.bcFree, st)
			bs.phase = 2
		case 2:
			if bs.ci == len(bs.children) {
				bs.children = nil
				bs.phase = 0
				return bs.val, bs.idx, true
			}
			c.chargeScalarSend()
			bs.phase = 3
		case 3:
			if !ep.AM.StepRequest(&bs.req, c.actual(bs.children[bs.ci], root), c.hDown,
				[4]uint64{uint64(bs.seq), math.Float64bits(bs.val), uint64(bs.idx)},
				dataBytes, nil) {
				return 0, 0, false
			}
			bs.ci++
			bs.phase = 2
		}
	}
}
