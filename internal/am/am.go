// Package am reimplements the Active Message layer (CMAML, von Eicken et
// al. ISCA 1992) on the simulated CM-5 network interface. An active message
// names a handler on the destination node; the handler runs when the
// destination polls the network (the CMMD library "polls heavily" — the
// paper's simulator likewise dispatches handlers without kernel traps).
//
// All software overhead (composing a request, poll-and-dispatch) is charged
// to the library-computation category, and cache misses taken inside
// handlers are charged to library misses — the paper's "Lib Comp" and "Lib
// Misses" rows. When the network injects faults, an optional
// reliable-delivery transport (reliable.go) filters every packet inside the
// poll machine; its overhead is charged to the separate LibRetrans category.
//
// Driver contract. Every call that can suspend exists once, as a step form
// over a caller-held frame (StepPoll — the one poll machine — StepPollUntil,
// StepRequest, StepSendPacket) that returns "not done" where a coroutine
// would suspend; a step processor returns sim.StepYield and re-invokes it
// with the same frame and arguments. The blocking calls kept for coroutine
// programs (Request, PollUntil) are drivers, `for !a.StepFoo(frame, ...) {
// p.Yield() }`, so both processor forms charge every cycle through the same
// body.
//
// Two handler kinds share one table. Register installs a run-to-completion
// Handler: host state only, except that on a coroutine processor it may call
// the blocking library (it runs on the driver's stack). RegisterStep installs
// a StepHandler, resumable under either processor form, for handlers that
// touch simulated memory or the network.
package am

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrNoHandler reports a packet whose tag names no registered handler. On
// the lossless machine this is a programmer error and dispatch panics; on a
// faulty network (fault plan attached, e.g. a corrupted tag word) it is
// returned as a typed error through StepPoll and PollUntil.
var ErrNoHandler = errors.New("am: no handler")

// Handler processes a delivered active message on the receiving node and
// runs to completion. It runs in library accounting mode; computation and
// memory traffic it performs are charged as library time. pkt points into
// the dispatching poll's frame and is valid until the handler returns.
type Handler func(pkt *ni.Packet)

// StepHandler is a resumable Handler: false means it suspended (an Interact
// would yield, or it parked the processor) and must be re-invoked with the
// same frame and packet. hs is zero on the first invocation of a dispatch
// and must be left zero on completion.
type StepHandler func(hs *HandlerStep, pkt *ni.Packet) bool

// HandlerStep is the frame a poll lends the StepHandler it dispatches: one
// word of handler state and the frame of a Request the handler may send.
type HandlerStep struct {
	Arg uint64
	Req ReqStep
}

// handler is one table entry; exactly one of the two kinds is set.
type handler struct {
	run  Handler
	step StepHandler
}

// AM is one node's active-message layer.
type AM struct {
	NI  *ni.NI
	P   *sim.Proc
	Cfg *cost.Config

	handlers []handler
	rel      *Reliable

	// frames is the stack of poll frames the blocking drivers and the
	// transport's window-full service borrow; depth follows the processor's
	// own call nesting (a handler that polls sits one frame above the poll
	// that dispatched it). The handler call is indirect, so a frame on the Go
	// stack would escape — one heap allocation per poll.
	frames []*PollStep
	depth  int
}

// New creates the active-message layer over a network interface.
func New(nif *ni.NI) *AM {
	return &AM{NI: nif, P: nif.P, Cfg: nif.Cfg}
}

// Rel returns the reliable transport layered over this AM, or nil on the
// seed's lossless configuration.
func (a *AM) Rel() *Reliable { return a.rel }

// Register installs a run-to-completion handler and returns its id.
// Handlers must be registered in the same order on every node (SPMD style),
// so ids agree.
func (a *AM) Register(h Handler) int {
	a.handlers = append(a.handlers, handler{run: h})
	return len(a.handlers) - 1
}

// RegisterStep installs a resumable handler; ids share Register's sequence.
func (a *AM) RegisterStep(h StepHandler) int {
	a.handlers = append(a.handlers, handler{step: h})
	return len(a.handlers) - 1
}

func (a *AM) pushFrame() *PollStep {
	if a.depth == len(a.frames) {
		a.frames = append(a.frames, new(PollStep))
	}
	a.depth++
	return a.frames[a.depth-1]
}

func (a *AM) popFrame() { a.depth-- }

// --- sending ---

// ReqStep is the resumable state of one StepRequest: the composed packet
// and its injection.
type ReqStep struct {
	composed bool
	pkt      ni.Packet
	send     SendStep
}

// SendStep is the resumable state of one StepSendPacket under a transport
// (a bare NI injection needs none): whether the packet has its sequence
// number yet, and the frame the send services the network through while the
// window is full.
type SendStep struct {
	sequenced bool
	svc       *PollStep
}

// Request sends an active message to dst invoking handler there. args are
// the payload words; dataBytes of the payload count as application data
// (0 for pure control/handshake messages). data optionally carries bulk
// payload words for the handler.
func (a *AM) Request(dst, handler int, args [4]uint64, dataBytes int, data []uint64) {
	var rs ReqStep
	for !a.StepRequest(&rs, dst, handler, args, dataBytes, data) {
		a.P.Yield()
	}
}

// StepRequest is the one implementation of Request. The arguments are
// latched once the send overhead has been charged.
func (a *AM) StepRequest(rs *ReqStep, dst, handler int, args [4]uint64, dataBytes int, data []uint64) bool {
	if !rs.composed {
		p := a.P
		if !p.StepInteract() {
			return false
		}
		p.ChargeStall(stats.LibComp, a.Cfg.AMSendCycles)
		p.Acct.Add(stats.CntActiveMessages, 1)
		rs.pkt = ni.Packet{Dst: dst, Tag: handler, Args: args, DataBytes: dataBytes}
		rs.pkt.SetPayload(data)
		rs.composed = true
	}
	if !a.StepSendPacket(&rs.send, &rs.pkt) {
		return false
	}
	rs.composed = false
	return true
}

// StepSendPacket injects a pre-built packet, through the reliable transport
// when one is attached (the CMMD channel layer and the collectives stream
// data packets directly, below the Request call path). pkt must live in the
// caller's frame: re-invocations pass the same packet.
func (a *AM) StepSendPacket(ss *SendStep, pkt *ni.Packet) bool {
	if a.rel != nil {
		return a.rel.stepSend(ss, pkt)
	}
	return a.NI.StepSend(pkt)
}

// --- the poll machine ---

// PollStep is the frame of one poll, or of one poll-until wait. It owns its
// packet buffer: the packet being dispatched — handlers read it in place,
// and a handler whose send must service the network polls through a frame
// of its own (SendStep.svc), so nothing a nested poll receives can overwrite
// it — and, once dispatch is over, the acknowledgement or retransmission
// being injected. Beside it sit the dispatched StepHandler's frame and the
// transport's filter state: which peer's in-order run is being released,
// and the retransmit scan's cursor and latched clock.
type PollStep struct {
	phase   uint8 // micro-phase of the poll in progress
	stage   uint8 // stage of the service step in progress (svNone: none)
	entered bool  // StepPollUntil is past its entry Interact
	handled bool  // this poll popped a packet
	inRun   bool  // pkt came out of the transport's in-order release run

	pkt ni.Packet
	hs  HandlerStep
	err error // first dispatch error of this poll

	src      int      // sender whose in-order run is being released
	peer     int      // retransmit scan: peer cursor
	now      sim.Time // retransmit scan: clock latched at scan start
	deadline sim.Time // latched bound of the wait after an empty poll
}

const (
	pStatus   uint8 = iota // NI status-register read
	pRecv                  // FIFO load, then the transport's accept filter
	pDispatch              // dispatch entry: tag check, overhead, library mode
	pHandler               // handler body
	pRelease               // transport: next in-order buffered packet, else ack
	pAck                   // transport: cumulative-ack injection
	pProgress              // transport: start the retransmit scan
	pScan                  // transport: next peer whose timeout expired
	pRetrans               // transport: retransmission injection
	pDone
)

// StepPoll is the one poll machine: status read, FIFO load, transport
// filter, dispatch-entry accounting, handler, cumulative ack, retransmit
// scan. handled and err are valid only when done. The scan runs after the
// receive so that an acknowledgement already sitting in the input queue
// cancels a pending timeout instead of triggering a spurious retransmission.
// A dispatch failure on a faulty network (e.g. no handler for a corrupted
// tag) is returned as a typed error; on the lossless machine it panics.
func (a *AM) StepPoll(ps *PollStep) (handled, done bool, err error) {
	p := a.P
	r := a.rel
	for {
		switch ps.phase {
		case pStatus:
			avail, ok := a.NI.StepStatus()
			if !ok {
				return false, false, nil
			}
			ps.handled, ps.err = avail, nil
			ps.phase = pProgress
			if avail {
				ps.phase = pRecv
			}
		case pRecv:
			if !a.NI.StepRecv(&ps.pkt) {
				return false, false, nil
			}
			ps.phase = pDispatch
			if r != nil {
				ps.phase = r.accept(ps)
			}
		case pDispatch:
			ps.phase = pHandler
			if !a.enter(ps) {
				ps.phase = afterHandler(ps)
			}
		case pHandler:
			if h := &a.handlers[ps.pkt.Tag]; h.step == nil {
				h.run(&ps.pkt)
			} else if !h.step(&ps.hs, &ps.pkt) {
				return false, false, nil
			}
			p.PopMode()
			ps.phase = afterHandler(ps)
		case pRelease:
			ps.phase = r.release(ps)
		case pAck:
			if !a.NI.StepSend(&ps.pkt) {
				return false, false, nil
			}
			ps.phase = pProgress
		case pProgress:
			ps.phase = pDone
			if r != nil && r.outstanding > 0 {
				ps.now, ps.peer = p.Clock(), 0
				ps.phase = pScan
			}
		case pScan:
			ps.phase = pDone
			if r.due(ps) {
				ps.phase = pRetrans
			}
		case pRetrans:
			if !a.NI.StepSend(&ps.pkt) {
				return false, false, nil
			}
			r.retransmitted(ps)
			ps.phase = pScan
		case pDone:
			ps.phase = pStatus
			return ps.handled, true, ps.err
		}
	}
}

// afterHandler is where a poll goes once a packet's dispatch is over: back
// to the transport's release run if the packet came out of it, otherwise on
// to the retransmit scan.
func afterHandler(ps *PollStep) uint8 {
	if ps.inRun {
		return pRelease
	}
	return pProgress
}

// enter is the dispatch entry for ps.pkt: the tag check, the dispatch
// overhead, and the switch to library accounting mode (popped after the
// handler). It reports false, recording the poll's first such error, when
// the tag names no handler.
func (a *AM) enter(ps *PollStep) bool {
	pkt := &ps.pkt
	if pkt.Tag < 0 || pkt.Tag >= len(a.handlers) {
		err := fmt.Errorf("am: node %d: no handler for tag %d from node %d: %w",
			a.NI.Node, pkt.Tag, pkt.Src, ErrNoHandler)
		if !a.NI.Faulty() && !pkt.Corrupt {
			// Lossless machine: only a program bug reaches here.
			panic(err)
		}
		if ps.err == nil {
			ps.err = err
		}
		return false
	}
	p := a.P
	p.ChargeStall(stats.LibComp, a.Cfg.AMDispatchCycles)
	p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
	return true
}

// StepDrain handles every currently available packet: it polls through ps
// until one handles nothing or fails to dispatch. Each poll runs to done
// before its outcome is tested, so one suspended in an acknowledgement or
// retransmission injection is finished, never abandoned.
func (a *AM) StepDrain(ps *PollStep) bool {
	for {
		handled, done, err := a.StepPoll(ps)
		if !done {
			return false
		}
		if err != nil || !handled {
			return true
		}
	}
}

// Service-step stages (PollStep.stage).
const (
	svNone uint8 = iota // no service step in progress
	svPoll              // polling
	svWait              // nothing handled: parked on the NI until ps.deadline
)

// stepService services the network once through ps: a poll (which also
// drives retransmission) and, if nothing was handled, a wait charged to cat
// and bounded by the next transport deadline. ps.stage is svNone exactly
// when no service step is suspended in the frame.
func (a *AM) stepService(ps *PollStep, cat stats.Category) (done bool, err error) {
	if ps.stage != svWait {
		ps.stage = svPoll
		handled, done, err := a.StepPoll(ps)
		if !done {
			return false, nil
		}
		if handled || err != nil {
			ps.stage = svNone
			return true, err
		}
		// Latched before the wait's Interact, as the bound of a blocking
		// wait is an argument evaluated before the call.
		ps.deadline = a.rel.nextDeadline()
		ps.stage = svWait
	}
	if !a.NI.StepWaitPacketUntil(cat, ps.deadline) {
		return false, nil
	}
	ps.stage = svNone
	return true, nil
}

// stepServiceUntil runs service steps through ps until cond holds or a
// dispatch fails. A step suspended in ps is finished before cond is
// re-tested: the poll that processed the event cond waits for may itself be
// suspended in an acknowledgement or retransmission injection, and must not
// be abandoned mid-flight. cond must read host state only.
func (a *AM) stepServiceUntil(ps *PollStep, cat stats.Category, cond func() bool) (done bool, err error) {
	for ps.stage != svNone || !cond() {
		if done, err := a.stepService(ps, cat); !done || err != nil {
			return done, err
		}
	}
	return true, nil
}

// PollUntil polls the network, dispatching handlers, until cond() is true.
// Time spent waiting with no packets available is charged to library
// computation — this is how load-imbalance wait appears as "Lib Comp" in
// the paper's message-passing breakdowns. With the reliable transport
// attached, waits are bounded by the next retransmission deadline so a
// dropped packet cannot park the processor forever.
func (a *AM) PollUntil(cond func() bool) error {
	ps := a.pushFrame()
	for {
		if done, err := a.StepPollUntil(ps, cond); done {
			a.popFrame()
			return err
		}
		a.P.Yield()
	}
}

// StepPollUntil is the one implementation of PollUntil: an entry Interact,
// then service steps until cond. err is valid only when done.
func (a *AM) StepPollUntil(ps *PollStep, cond func() bool) (done bool, err error) {
	if !ps.entered {
		if !a.P.StepInteract() {
			return false, nil
		}
		ps.entered = true
	}
	done, err = a.stepServiceUntil(ps, stats.LibComp, cond)
	ps.entered = !done
	return done, err
}
