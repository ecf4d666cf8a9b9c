package am

// The reliable-delivery transport: a sliding-window channel layer between
// active messages and the (now possibly faulty) network interface, in the
// style of a classic ARQ link protocol.
//
//   - Every packet to a peer carries a per-peer sequence number (seq 0 marks
//     raw, unsequenced control packets such as acks).
//   - The receiver delivers packets to handlers strictly in per-peer
//     sequence order, buffering out-of-order arrivals in a bounded window,
//     filtering duplicates, and discarding corrupt packets (modeled
//     checksum). Each accepted or duplicate packet is answered with a
//     cumulative acknowledgement.
//   - The sender keeps unacknowledged packets in a window (sends service the
//     network when it fills), retransmits the oldest on timeout with
//     exponential backoff, and gives up after a bounded retry budget —
//     aborting the run with a structured faults.StarvationError naming the
//     peer and the oldest unacked sequence number, instead of deadlocking
//     the machine.
//
// The transport has no loop of its own: it is a per-packet filter inside
// the poll machine (AM.StepPoll), with its cursors in the poll frame. accept
// classifies the packet just popped, release hands the in-order run to the
// handlers one dispatch at a time and then stages the cumulative ack, due
// finds the next expired timeout and stages the retransmission. The calls
// that wait on the network (a send under a full window, StepFlush,
// StepShutdown) repeat service steps through a poll frame; Flush and
// Shutdown are coroutine drivers over the step forms.
//
// All software overhead lives in the LibRetrans accounting category so the
// cost of reliability appears as its own row next to the paper's Lib Comp /
// Lib Misses taxonomy. Retransmitted packets pass through the NI again, so
// their wire traffic lands in the ordinary message/byte counters exactly
// like first transmissions.

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Group tracks every node's transport so shutdown can quiesce the whole
// machine: a node may only stop servicing the network once no peer has
// unacknowledged packets left, or a peer's final retransmissions would
// starve.
//
// Quiet reads the members' counts as published at the last quantum boundary
// rather than live: a shutting-down node polls Quiet from processor context
// in the same quantum as its peers, and the conservative window leaves open
// which of them ran first, so only the boundary value is part of the model.
type Group struct {
	members []*Reliable
}

// NewGroup creates an empty transport group, registering the
// quantum-boundary publication of members' shutdown progress on eng.
func NewGroup(eng *sim.Engine) *Group {
	g := &Group{}
	eng.AddPublisher(func(sim.Time) {
		for _, r := range g.members {
			r.published = r.outstanding
			r.pubDown = r.down
		}
	})
	return g
}

// Quiet reports whether, as of the last quantum boundary, every member had
// entered Shutdown with no unacknowledged packets outstanding. Requiring
// shutdown arrival — not just empty windows — keeps a node that finishes
// its program early servicing the network until its peers are genuinely
// done, rather than deciding from a moment when they simply had not sent
// anything yet.
func (g *Group) Quiet() bool {
	for _, r := range g.members {
		if !r.pubDown || r.published > 0 {
			return false
		}
	}
	return true
}

// relPkt is one unacknowledged packet awaiting a cumulative ack.
type relPkt struct {
	seq   uint64
	pkt   ni.Packet
	first sim.Time // first injection time, for starvation reports
}

// relPeer is the per-peer transport state, both directions.
type relPeer struct {
	// Sender side: packets we sent to the peer.
	nextSeq  uint64
	unacked  []relPkt
	deadline sim.Time // retransmit deadline for the oldest unacked
	rto      int64    // current timeout (exponential backoff)
	retries  int      // consecutive timeouts without ack progress

	// Receiver side: packets the peer sends us.
	cum uint64               // highest in-order sequence delivered
	buf map[uint64]ni.Packet // out-of-order reorder/dedup window
}

// Reliable is one node's reliable-delivery transport.
type Reliable struct {
	a   *AM
	fc  cost.FaultsConfig // defaulted tuning (RTO, window, retry budget)
	grp *Group

	hAck  int
	peers []*relPeer

	// outstanding is the total unacked packet count across peers, kept so
	// the per-poll progress scan is O(1) when nothing is pending. down is
	// set by the owning processor when it enters Shutdown. published and
	// pubDown are their values at the last quantum boundary (see Group):
	// derived state, recomputed every quantum, that therefore stays out of
	// the snapshot encoders.
	outstanding int
	down        bool
	published   int
	pubDown     bool
}

// NewReliable layers the transport over a, for a machine of nodes
// processors, and registers its ack handler (so it must be constructed at
// the same point on every node, SPMD style). fc must already have its
// tuning defaulted (cost.FaultsConfig.WithDefaults).
func NewReliable(a *AM, nodes int, fc cost.FaultsConfig, grp *Group) *Reliable {
	r := &Reliable{a: a, fc: fc, grp: grp, peers: make([]*relPeer, nodes)}
	r.hAck = a.Register(r.onAck)
	a.rel = r
	if grp != nil {
		grp.members = append(grp.members, r)
	}
	a.P.SetDiagnostic(r.Diagnose)
	return r
}

func (r *Reliable) peer(id int) *relPeer {
	pr := r.peers[id]
	if pr == nil {
		pr = &relPeer{buf: make(map[uint64]ni.Packet)}
		r.peers[id] = pr
	}
	return pr
}

// stepSend assigns the next per-peer sequence number and injects the packet.
// While the send window is full it services the network through a frame of
// its own, borrowed from the AM's frame stack for the duration: the caller
// may itself be a handler running inside a poll.
func (r *Reliable) stepSend(ss *SendStep, pkt *ni.Packet) bool {
	a := r.a
	if !ss.sequenced {
		pr := r.peer(pkt.Dst)
		open := func() bool { return len(pr.unacked) < r.fc.Window }
		if ss.svc == nil && !open() {
			ss.svc = a.pushFrame()
		}
		if ss.svc != nil {
			if !r.serviceUntil(ss.svc, open) {
				return false
			}
			a.popFrame()
			ss.svc = nil
		}
		p := a.P
		p.ChargeStall(stats.LibRetrans, a.Cfg.RelSeqCycles)
		pr.nextSeq++
		pkt.Seq = pr.nextSeq
		pr.unacked = append(pr.unacked, relPkt{seq: pkt.Seq, pkt: *pkt, first: p.Clock()})
		r.outstanding++
		if len(pr.unacked) == 1 {
			pr.rto = r.fc.RTO
			pr.retries = 0
			pr.deadline = p.Clock() + pr.rto
		}
		ss.sequenced = true
	}
	if !a.NI.StepSend(pkt) {
		return false
	}
	ss.sequenced = false
	return true
}

// due is the retransmit scan, entered from every poll so that any code that
// services the network drives recovery. It advances ps.peer to the next
// peer whose timeout had expired at ps.now — the clock latched when the
// scan started, for every peer, even after an earlier retransmission
// advanced it — charges the retransmission and stages it in ps.pkt. False
// means the scan is over. If the peer's retry budget is exhausted the run
// is aborted with a structured starvation report (this does not return).
func (r *Reliable) due(ps *PollStep) bool {
	p := r.a.P
	for ; ps.peer < len(r.peers); ps.peer++ {
		pr := r.peers[ps.peer]
		if pr == nil || len(pr.unacked) == 0 || ps.now < pr.deadline {
			continue
		}
		if pr.retries >= r.fc.MaxRetries {
			oldest := pr.unacked[0]
			p.Fail(&faults.StarvationError{
				Node: r.a.NI.Node, Peer: ps.peer,
				OldestUnacked: oldest.seq, Retries: pr.retries,
				FirstSent: oldest.first, Now: ps.now,
			})
		}
		pr.retries++
		pr.rto *= 2
		if pr.rto > r.fc.RTOMax {
			pr.rto = r.fc.RTOMax
		}
		// Retransmit the oldest unacked packet only: the receiver's reorder
		// window holds everything that did arrive, so the cumulative ack
		// jumps past it once the hole is plugged. The injection gets a
		// private copy — it stamps Arrive and the fault plan may corrupt the
		// transmission, neither of which may touch the stored clean copy.
		p.ChargeStall(stats.LibRetrans, r.a.Cfg.RelRetransCycles)
		p.Acct.Add(stats.CntRetransmissions, 1)
		ps.pkt = pr.unacked[0].pkt
		return true
	}
	return false
}

// retransmitted re-arms the timeout of the peer whose retransmission was
// just injected and moves the scan past it.
func (r *Reliable) retransmitted(ps *PollStep) {
	pr := r.peers[ps.peer]
	pr.deadline = r.a.P.Clock() + pr.rto
	ps.peer++
}

// nextDeadline returns when a waiter must wake at the latest: the earliest
// retransmit deadline over all peers with unacked packets; with nothing
// pending, one timeout from now once the node is shutting down (to re-check
// the group), and otherwise — or without a transport — the math.MaxInt64
// that ni.StepWaitPacketUntil takes for "no bound".
func (r *Reliable) nextDeadline() sim.Time {
	dl := sim.Time(math.MaxInt64)
	if r == nil {
		return dl
	}
	if r.outstanding == 0 && r.down {
		return r.a.P.Clock() + r.fc.RTO
	}
	for _, pr := range r.peers {
		if pr != nil && len(pr.unacked) > 0 && pr.deadline < dl {
			dl = pr.deadline
		}
	}
	return dl
}

// accept is the transport's receive filter for the packet just popped into
// ps.pkt: checksum, duplicate filtering, buffering for in-order release. It
// returns the poll's next phase. Raw packets (seq 0: acks) dispatch directly.
func (r *Reliable) accept(ps *PollStep) uint8 {
	p := r.a.P
	pkt := &ps.pkt
	if pkt.Corrupt {
		// Modeled checksum failure: discard silently; if the packet was
		// sequenced the sender's timeout recovers it.
		p.ChargeStall(stats.LibRetrans, r.a.Cfg.RelSeqCycles)
		p.Acct.Add(stats.CntCorrupt, 1)
		return pProgress
	}
	if pkt.Seq == 0 {
		return pDispatch
	}
	// The release run overwrites ps.pkt — latch the sender first.
	ps.src = pkt.Src
	pr := r.peer(ps.src)
	p.ChargeStall(stats.LibRetrans, r.a.Cfg.RelSeqCycles)
	if pkt.Seq <= pr.cum {
		// Already delivered: a network duplicate, or a retransmission after
		// our ack was lost. Re-ack so the sender stops resending.
		p.Acct.Add(stats.CntDuplicates, 1)
		r.stageAck(ps, pr.cum)
		return pAck
	}
	if _, dup := pr.buf[pkt.Seq]; dup {
		p.Acct.Add(stats.CntDuplicates, 1)
		return pProgress
	}
	pr.buf[pkt.Seq] = *pkt
	ps.inRun = true
	return pRelease
}

// release moves the next in-order buffered packet from ps.src into ps.pkt
// for dispatch; when the run is exhausted it stages the cumulative ack. The
// cursor is re-read from the peer each time: a handler whose send serviced
// the network may have released part of the run through its own frame.
func (r *Reliable) release(ps *PollStep) uint8 {
	pr := r.peer(ps.src)
	if nxt, ok := pr.buf[pr.cum+1]; ok {
		delete(pr.buf, pr.cum+1)
		pr.cum++
		ps.pkt = nxt
		return pDispatch
	}
	ps.inRun = false
	r.stageAck(ps, pr.cum)
	return pAck
}

// stageAck charges and stages in ps.pkt a cumulative acknowledgement to
// ps.src (a raw 20-byte control packet; its bytes count as protocol control
// traffic).
func (r *Reliable) stageAck(ps *PollStep, cum uint64) {
	p := r.a.P
	p.ChargeStall(stats.LibRetrans, r.a.Cfg.RelAckCycles)
	p.Acct.Add(stats.CntAcks, 1)
	ps.pkt = ni.Packet{Dst: ps.src, Tag: r.hAck, Args: [4]uint64{cum}}
}

// onAck is the ack handler on the sending side: drop acknowledged packets
// from the window and reset the backoff on progress.
func (r *Reliable) onAck(pkt *ni.Packet) {
	pr := r.peer(pkt.Src)
	cum := pkt.Args[0]
	p := r.a.P
	p.ChargeStall(stats.LibRetrans, r.a.Cfg.RelAckCycles)
	n := 0
	for n < len(pr.unacked) && pr.unacked[n].seq <= cum {
		n++
	}
	if n == 0 {
		return
	}
	pr.unacked = pr.unacked[n:]
	r.outstanding -= n
	pr.rto = r.fc.RTO
	pr.retries = 0
	pr.deadline = p.Clock() + pr.rto
}

// StepService performs one non-blocking poll through ps; the barrier's
// poll-mode wait calls it each quantum so acks and retransmissions progress
// while a node waits at a barrier.
func (r *Reliable) StepService(ps *PollStep) bool {
	_, done, err := r.a.StepPoll(ps)
	if err != nil {
		r.a.P.Fail(err)
	}
	return done
}

// StepFlush services the network through ps until every packet this node
// sent has been acknowledged. CMMD's barrier flushes on entry so that no
// node can park in the hardware barrier with undelivered data (the
// message-passing analogue of a memory fence).
func (r *Reliable) StepFlush(ps *PollStep) bool {
	return r.serviceUntil(ps, func() bool { return r.outstanding == 0 })
}

// serviceUntil services the network through ps, on the transport's account,
// until cond holds; dispatch errors abort the run (they only arise on the
// faulty path, where continuing would corrupt the target program).
func (r *Reliable) serviceUntil(ps *PollStep, cond func() bool) bool {
	done, err := r.a.stepServiceUntil(ps, stats.LibRetrans, cond)
	if err != nil {
		r.a.P.Fail(err)
	}
	return done
}

// ShutdownStep is the resumable state of one StepShutdown.
type ShutdownStep struct {
	idle bool // flushed; servicing the network for the peers' sake
	ps   PollStep
}

// Shutdown quiesces the node at the end of its program: flush our own
// sends, then keep servicing the network until the whole group has nothing
// outstanding — a peer may still be retransmitting data whose ack was lost,
// and it can only stop once we re-ack. Idle waiting here is charged to
// LibComp like any other end-of-program load imbalance.
func (r *Reliable) Shutdown() {
	sd := new(ShutdownStep)
	for !r.StepShutdown(sd) {
		r.a.P.Yield()
	}
}

// StepShutdown is the one implementation of Shutdown.
func (r *Reliable) StepShutdown(sd *ShutdownStep) bool {
	r.down = true
	for {
		if !sd.idle {
			if !r.StepFlush(&sd.ps) {
				return false
			}
			if r.grp == nil || r.grp.Quiet() {
				return true
			}
			sd.idle = true
		}
		// Nothing pending locally: one service step — a poll, then a sleep of
		// one timeout interval or until a packet arrives (nextDeadline) — and
		// re-check the group.
		done, err := r.a.stepService(&sd.ps, stats.LibComp)
		if !done {
			return false
		}
		if err != nil {
			r.a.P.Fail(err)
		}
		sd.idle = false
	}
}

// Diagnose renders the transport state for engine stall reports: per-peer
// oldest unacked sequence numbers and receive cursors.
func (r *Reliable) Diagnose() string {
	s := ""
	for id, pr := range r.peers {
		if pr == nil {
			continue
		}
		if len(pr.unacked) > 0 {
			s += fmt.Sprintf("[->%d unacked=%d oldest=%d retries=%d] ",
				id, len(pr.unacked), pr.unacked[0].seq, pr.retries)
		}
		if len(pr.buf) > 0 {
			s += fmt.Sprintf("[<-%d cum=%d buffered=%d] ", id, pr.cum, len(pr.buf))
		}
	}
	if s == "" {
		return ""
	}
	return "transport: " + s
}
