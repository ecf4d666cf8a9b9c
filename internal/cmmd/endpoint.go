// Package cmmd reimplements the structure of Thinking Machines' CMMD
// message-passing library over the active-message layer, as the paper
// describes in §4.1: per-node send and receive "channels" initialized with
// destination, byte count, and buffer addresses; channel sends that break
// data into 20-byte packets injected into the network; data-packet handlers
// (invoked by polling) that store payloads to memory and count the
// transmission's progress; and high-level sends/receives that handshake to
// exchange the receiver's channel number. Programs with static communication
// use channels directly to avoid the handshake (the paper's EM3D and LCP do
// exactly this).
//
// Every library call that can suspend is written once, as a step form over a
// caller-held frame (step.go); the blocking calls in this file and in
// collective.go are coroutine drivers over them.
package cmmd

import (
	"repro/internal/am"
	"repro/internal/cost"
	"repro/internal/memsim"
	"repro/internal/sim"
)

// elemsPerPacket returns how many elements of size elemBytes fit a packet
// payload (16 bytes holds two doubles or four singles).
func elemsPerPacket(cfg *cost.Config, elemBytes int) int {
	n := cfg.PacketPayload / elemBytes
	if n < 1 {
		n = 1
	}
	return n
}

// RecvChannel is a receiver-side channel: a registered destination buffer
// (elements [lo, lo+expectWords) of vec) plus transfer bookkeeping. Channels
// re-arm automatically when a transfer completes, matching the repeated
// fixed-size transfers they are used for.
type RecvChannel struct {
	ID int

	vec         *memsim.FVec
	lo          int
	expectWords int
	gotWords    int
	completions int64
}

// Endpoint is one node's CMMD library state.
type Endpoint struct {
	Self  int
	Nodes int
	AM    *am.AM
	P     *sim.Proc
	Mem   *memsim.Mem
	Cfg   *cost.Config
	Bar   *sim.Barrier

	recvCh []*RecvChannel

	hData int // data-packet handler
	hRTS  int // request-to-send (handshake)
	hCTS  int // clear-to-send (grants a channel id)

	// Send/receive matching state.
	postedRecvs map[int][]*RecvChannel // tag -> ready channels (FIFO)
	pendingRTS  map[int][]rts          // tag -> senders awaiting a receiver
	ctsGrants   map[int][]int          // src -> granted channel ids (FIFO)

	// Frames of the calls a node runs at most one of at a time, allocated on
	// first use: the reliable-transport barrier (StepBarrier is parameterless)
	// and the blocking SendBlock driver (the frame embeds a poll frame, which
	// would escape from the Go stack).
	bar  *barrierStep
	send *SendStep
}

type rts struct {
	src   int
	words int
}

// NewEndpoint builds the CMMD layer for one node. bar is the machine's
// hardware barrier.
func NewEndpoint(self, nodes int, a *am.AM, mem *memsim.Mem, bar *sim.Barrier) *Endpoint {
	ep := &Endpoint{
		Self: self, Nodes: nodes, AM: a, P: a.P, Mem: mem, Cfg: a.Cfg, Bar: bar,
		postedRecvs: make(map[int][]*RecvChannel),
		pendingRTS:  make(map[int][]rts),
		ctsGrants:   make(map[int][]int),
	}
	ep.hData = a.RegisterStep(ep.onData)
	ep.hRTS = a.RegisterStep(ep.onRTS)
	ep.hCTS = a.Register(ep.onCTS)
	return ep
}

// Barrier enters the hardware barrier (CMMD_sync_with_nodes). On a faulty
// network the library first flushes the reliable transport (no node may park
// in the barrier with undelivered data) and then waits in polling mode, so
// acknowledgements and retransmissions for peers still progress — a blocked
// barrier wait on a lossy network is a machine-wide deadlock waiting to
// happen.
func (ep *Endpoint) Barrier() {
	for !ep.StepBarrier() {
		ep.P.Yield()
	}
}

// pollUntil wraps AM.PollUntil, aborting the run on dispatch errors.
func (ep *Endpoint) pollUntil(cond func() bool) {
	if err := ep.AM.PollUntil(cond); err != nil {
		ep.P.Fail(err)
	}
}

// --- Channels ---

// OpenRecvChannelF registers elements [lo, hi) of vec as a channel
// destination and returns the channel. The channel id must be communicated
// to the sender (by handshake or by symmetric construction).
func (ep *Endpoint) OpenRecvChannelF(vec *memsim.FVec, lo, hi int) *RecvChannel {
	if hi <= lo {
		panic("cmmd: empty receive channel")
	}
	c := &RecvChannel{ID: len(ep.recvCh), vec: vec, lo: lo, expectWords: hi - lo}
	ep.recvCh = append(ep.recvCh, c)
	return c
}

// ChannelWriteF streams elements [lo, hi) of vec to channel chID on dst:
// the library reads the data from memory, breaks it into packets, and
// injects them (paper §4.1). One channel-write op is counted regardless of
// packet count.
func (ep *Endpoint) ChannelWriteF(dst, chID int, vec *memsim.FVec, lo, hi int) {
	var cs ChanWriteStep
	for !ep.StepChannelWriteF(&cs, dst, chID, vec, lo, hi) {
		ep.P.Yield()
	}
}

// WaitChannel polls until the channel has completed at least n transfers.
func (ep *Endpoint) WaitChannel(ch *RecvChannel, n int64) {
	ep.pollUntil(func() bool { return ch.completions >= n })
}

// --- High-level send/receive (RTS/CTS handshake) ---

// RecvPost posts a receive of hi-lo elements into vec with the given tag.
// Use WaitChannel on the returned channel to detect delivery.
func (ep *Endpoint) RecvPost(tag int, vec *memsim.FVec, lo, hi int) *RecvChannel {
	var rs RecvStep
	for {
		if ch, done := ep.StepRecvPost(&rs, tag, vec, lo, hi); done {
			return ch
		}
		ep.P.Yield()
	}
}

// SendBlock sends elements [lo, hi) of vec to dst with a tag, blocking until
// the handshake completes and the data has been injected (CMMD's synchronous
// send: RTS, wait for CTS, stream packets to the granted channel).
func (ep *Endpoint) SendBlock(dst, tag int, vec *memsim.FVec, lo, hi int) {
	if ep.send == nil {
		ep.send = new(SendStep)
	}
	for !ep.StepSendBlock(ep.send, dst, tag, vec, lo, hi) {
		ep.P.Yield()
	}
}

// RecvBlock posts a receive and blocks until the data arrives.
func (ep *Endpoint) RecvBlock(tag int, vec *memsim.FVec, lo, hi int) {
	ch := ep.RecvPost(tag, vec, lo, hi)
	ep.WaitChannel(ch, 1)
}
