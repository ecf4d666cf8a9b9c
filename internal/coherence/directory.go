package coherence

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/memsim"
	"repro/internal/sim"
)

type reqKind int

const (
	reqGETS reqKind = iota
	reqGETX
	reqUPGRADE
)

func (k reqKind) String() string {
	switch k {
	case reqGETS:
		return "GETS"
	case reqGETX:
		return "GETX"
	case reqUPGRADE:
		return "UPGRADE"
	}
	return fmt.Sprintf("reqKind(%d)", int(k))
}

type request struct {
	kind  reqKind
	block uint64
	reqID int
	m     *memsim.Mem
}

// cohEvKind discriminates the protocol's event bodies: every closure the
// directory and cache controllers used to capture is now a kind plus the
// scalar fields below, so steady-state coherence traffic schedules nothing
// but recycled cohEvents.
type cohEvKind uint8

const (
	evFree       cohEvKind = iota
	evDirHandle            // request r arrives at home (draws fault decisions)
	evDirServe             // internal requeue: settle window, ctrl delay, waiter drain
	evNackWake             // wake the requester with a NACK verdict
	evCtrlInval            // cache controller on id invalidates block, acks home
	evCtrlRecall           // cache controller on id services a recall; flag=downgrade
	evDirAck               // acknowledgement at home from id; flag=withData
	evWriteback            // dirty writeback at home from id
	evGrant                // reply arrival at requester: install block, wake processor
	evFlushHint            // advisory replacement hint at home from id
)

// cohEvent is a pooled, closure-free protocol event (sim.Action). Which
// fields are meaningful depends on kind; r is only populated for
// request-carrying kinds (handle/serve/grant/nack).
type cohEvent struct {
	pr    *Protocol
	kind  cohEvKind
	home  int
	id    int
	block uint64
	flag  bool
	r     request
}

// RunEvent dispatches the event body and recycles the event. Engine context.
func (ev *cohEvent) RunEvent(at sim.Time) {
	pr := ev.pr
	switch ev.kind {
	case evDirHandle:
		pr.dirHandle(ev.home, ev.r, at)
	case evDirServe:
		pr.dirServe(ev.home, ev.r, at)
	case evNackWake:
		ev.r.m.P.WakeVals(at, 0, 1)
	case evCtrlInval:
		pr.ctrlInval(ev.id, ev.home, ev.block, at, false)
	case evCtrlRecall:
		pr.ctrlRecall(ev.id, ev.home, ev.block, at, ev.flag)
	case evDirAck:
		pr.dirAck(ev.home, ev.block, at, ev.flag, ev.id)
	case evWriteback:
		pr.dirWriteback(ev.home, ev.block, ev.id, at)
	case evGrant:
		pr.grantArrived(ev.home, ev.r, at)
	case evFlushHint:
		e := pr.entryOf(ev.home, ev.block)
		// Advisory: ignore if a transaction is mid-flight for the block.
		if e.pend == nil && e.state == dirShared {
			e.sharers.clear(ev.id)
		}
	default:
		panic(fmt.Sprintf("coherence: event with kind %d", ev.kind))
	}
	ev.kind = evFree
	ev.r = request{}
	pr.evFree = append(pr.evFree, ev)
}

// getEv returns a recycled (or fresh) protocol event. Directory events
// scheduling follow-ups and processors issuing requests both draw from it;
// RunEvent returns every event once it has run.
func (pr *Protocol) getEv() *cohEvent {
	if n := len(pr.evFree); n > 0 {
		ev := pr.evFree[n-1]
		pr.evFree = pr.evFree[:n-1]
		return ev
	}
	return &cohEvent{pr: pr}
}

type dirState uint8

const (
	dirIdle dirState = iota
	dirShared
	dirExcl
)

// entry is one block's directory state at its home. It lives inline in its
// home's chunk (see chunk), and so does its sharer set, which reaches out of
// line only once the block has had more than four sharers on a machine of
// more than 64 nodes (see sharerSet). It is 64 bytes.
type entry struct {
	state   dirState
	sharers sharerSet
	owner   int

	// pend is the block's transaction in flight, nil when the block is not
	// busy. It holds the requests queued behind it and is recycled through
	// Protocol.txnFree when it completes.
	pend *txn

	// settleUntil defers requests for this block until a freshly granted
	// write has had time to retire at its owner (the transient-state
	// deferral real directory protocols perform). Without it, a hot reader
	// can steal a granted line before the owner's store completes, forcing
	// an endless upgrade-downgrade orbit.
	settleUntil sim.Time

	// hist is a bounded ring of the block's recent protocol transitions,
	// allocated lazily on first record and therefore only when forensics
	// are on (checker, watchdog, or fault injection armed); invariant
	// violations and stall reports replay it. Keeping it behind a pointer
	// instead of inline shrinks every directory entry by ~200 bytes in the
	// common forensics-off run — at P=1024 the directory dominates the
	// simulator's footprint, so entries must only pay for what they use.
	hist *histRing
}

// histLen bounds the per-entry transition ring: enough to replay a full
// transaction (request, invalidation round, acks, grant) without growing
// memory per block.
const histLen = 8

type histRec struct {
	at sim.Time
	ev string
}

// histRing is the out-of-line forensics ring: recs is a circular buffer,
// n counts every record ever made (so n may exceed histLen).
type histRing struct {
	recs [histLen]histRec
	n    int
}

// histCount returns how many transitions were ever recorded (0 when
// forensics never touched this entry).
func (e *entry) histCount() int {
	if e.hist == nil {
		return 0
	}
	return e.hist.n
}

// history renders the ring oldest-first.
func (e *entry) history() []string {
	if e.hist == nil {
		return nil
	}
	var out []string
	start := 0
	if e.hist.n > histLen {
		start = e.hist.n - histLen
	}
	for i := start; i < e.hist.n; i++ {
		r := e.hist.recs[i%histLen]
		out = append(out, fmt.Sprintf("@%d %s", r.at, r.ev))
	}
	return out
}

type pendingReq struct {
	r      request
	arrive sim.Time
}

// txn is a multi-hop transaction in progress (invalidation round or recall)
// and the requests for its block that arrived while it was in flight, in
// arrival order.
type txn struct {
	r          request
	arrive     sim.Time // original request arrival, for queue-delay stats
	acksLeft   int
	needData   bool // the final reply carries the block
	recall     bool // waiting on the exclusive owner
	recallFrom int
	gotData    bool // recall data (or racing writeback) has arrived
	awaitWB    bool // owner had already evicted; waiting for its writeback
	waiters    []pendingReq
}

// beginTxn makes t block e's transaction in flight, in a record taken from
// the free list. The record keeps the backing array of its last waiter
// queue, so a hot block's queue stops growing once it has held its peak.
func (pr *Protocol) beginTxn(e *entry, t txn) {
	var rec *txn
	if n := len(pr.txnFree); n > 0 {
		rec = pr.txnFree[n-1]
		pr.txnFree = pr.txnFree[:n-1]
	} else {
		rec = new(txn)
	}
	t.waiters = rec.waiters[:0]
	*rec = t
	e.pend = rec
}

// chunkShift sets the directory's chunk size: a chunk holds the entries of
// 1<<chunkShift consecutive blocks.
const (
	chunkShift  = 4
	chunkBlocks = 1 << chunkShift
)

// chunk is one allocation of a home's directory: the entries of chunkBlocks
// consecutive blocks, inline, sharer sets and all. Only the entries whose
// bit is set in present exist; the rest are storage. Chunks are keyed
// sparsely (block>>chunkShift), never indexed densely: one home's blocks
// lie far apart (its pages of the striped heap and its local arena are 2^40
// blocks apart, and arenas are 2^31 blocks wide), and a dense index pays for
// every gap.
type chunk struct {
	key     uint64 // block >> chunkShift
	present uint16 // bit i: the entry of block key<<chunkShift + i exists
	ents    [chunkBlocks]entry
}

// lookup returns block's directory entry at home, or nil if it has none.
// It never creates one.
func (pr *Protocol) lookup(home int, block uint64) *entry {
	c := pr.nodes[home].chunks[block>>chunkShift]
	if i := block & (chunkBlocks - 1); c != nil && c.present&(1<<i) != 0 {
		return &c.ents[i]
	}
	return nil
}

// entryOf returns block's directory entry at home, creating it (idle, no
// sharers, no owner) on first use.
func (pr *Protocol) entryOf(home int, block uint64) *entry {
	n := pr.nodes[home]
	key := block >> chunkShift
	c := n.chunks[key]
	if c == nil {
		c = n.newChunk(key, (pr.Cfg.Procs+63)/64)
	}
	i := block & (chunkBlocks - 1)
	c.present |= 1 << i
	return &c.ents[i]
}

// newChunk allocates the chunk for key, each entry idle with an empty
// sharer set words map words wide, and files it in the map and, in key
// order, in n.order. It is one allocation whatever the machine's size.
func (n *node) newChunk(key uint64, words int) *chunk {
	c := &chunk{key: key}
	for i := range c.ents {
		c.ents[i] = entry{state: dirIdle, owner: -1, sharers: sharerSet{words: uint32(words)}}
	}
	n.chunks[key] = c
	at, _ := slices.BinarySearchFunc(n.order, key, func(x *chunk, k uint64) int { return cmp.Compare(x.key, k) })
	n.order = slices.Insert(n.order, at, c)
	return c
}

// walk calls fn on each of n's directory entries in ascending block order
// until fn returns false.
func (n *node) walk(fn func(block uint64, e *entry) bool) {
	for _, c := range n.order {
		for m := c.present; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			if !fn(c.key<<chunkShift|uint64(i), &c.ents[i]) {
				return
			}
		}
	}
}

// dirHandle is the home's network-facing entry point for a request arriving
// at time arrive. Fault injection is decided here, exactly once per arrival:
// the home may NACK the request outright, or its service may be deferred by
// injected delivery delay. Internal requeues (settle windows, waiters behind
// a completed transaction) go straight to dirServe and draw no new faults.
func (pr *Protocol) dirHandle(home int, r request, arrive sim.Time) {
	if pr.check != nil {
		pr.check.reqsIn[home]++
	}
	if pr.ctrl != nil {
		d := pr.ctrl.DecideRequest()
		if d.NACK {
			pr.nack(home, r, arrive)
			return
		}
		if d.Delay > 0 {
			ev := pr.getEv()
			ev.kind, ev.home, ev.r = evDirServe, home, r
			pr.Eng.ScheduleAction(arrive+d.Delay, ev)
			return
		}
	}
	pr.dirServe(home, r, arrive)
}

// nack refuses a request: the directory spends its base occupancy deciding,
// a control message returns to the requester, and the requester wakes to
// back off and retry (see issue). This is the negative-acknowledgement path
// real directory controllers take to shed load or resolve races.
func (pr *Protocol) nack(home int, r request, arrive sim.Time) {
	n := pr.nodes[home]
	e := pr.entryOf(home, r.block)
	pr.NACKsSent++
	if pr.check != nil {
		pr.check.nacksOut[home]++
	}
	if pr.forensics {
		pr.record(e, arrive, "nack %v from %d", r.kind, r.reqID)
		pr.note(home, arrive, "nacked %v %#x from %d", r.kind, r.block, r.reqID)
	}
	start := arrive
	if n.busyUntil > start {
		start = n.busyUntil
	}
	n.busyUntil = start + pr.Cfg.DirBase
	pr.countMsg(home, r.reqID, false)
	at := n.busyUntil + pr.Cfg.DirMsgSend + pr.latency(home, r.reqID) + pr.sendDelay()
	ev := pr.getEv()
	ev.kind, ev.r = evNackWake, r
	pr.Eng.ScheduleAction(at, ev)
}

// dirServe processes a request at the home. If the block has a transaction
// in flight the request queues behind it; otherwise it waits for the
// directory server to be free (contention) and is serviced.
func (pr *Protocol) dirServe(home int, r request, arrive sim.Time) {
	e := pr.entryOf(home, r.block)
	if t := e.pend; t != nil {
		if pr.forensics {
			pr.record(e, arrive, "queue %v from %d (txn in flight)", r.kind, r.reqID)
		}
		t.waiters = append(t.waiters, pendingReq{r: r, arrive: arrive})
		return
	}
	if arrive < e.settleUntil {
		at := e.settleUntil
		if pr.forensics {
			pr.record(e, arrive, "defer %v from %d until @%d (settle)", r.kind, r.reqID, at)
		}
		ev := pr.getEv()
		ev.kind, ev.home, ev.r = evDirServe, home, r
		pr.Eng.ScheduleAction(at, ev)
		return
	}
	if pr.forensics {
		pr.note(home, arrive, "serving %v %#x from %d", r.kind, r.block, r.reqID)
	}
	n := pr.nodes[home]
	start := arrive
	if n.busyUntil > start {
		pr.QueueDelay += n.busyUntil - start
		start = n.busyUntil
	}
	pr.QueueEvents++
	cfg := pr.Cfg

	switch r.kind {
	case reqGETS:
		if e.state != dirExcl {
			// Memory is current: read DRAM, send the block. The directory
			// state machine is occupied for the lookup and DRAM read; the
			// send engine adds its cycles to the reply path but can overlap
			// the next request.
			n.busyUntil = start + cfg.DirBase + cfg.DRAMCycles
			e.state = dirShared
			e.sharers.set(r.reqID)
			pr.reply(home, r, n.busyUntil+cfg.DirMsgSend+cfg.DirBlockSend, true)
			return
		}
		pr.beginRecall(home, e, r, arrive, start)

	case reqGETX, reqUPGRADE:
		needData := r.kind == reqGETX || !e.sharers.has(r.reqID)
		switch e.state {
		case dirExcl:
			if e.owner == r.reqID {
				// Stale request (e.g. we already own it); grant cheaply.
				n.busyUntil = start + cfg.DirBase + cfg.DirMsgSend
				pr.settle(e, pr.reply(home, r, n.busyUntil, false))
				return
			}
			pr.beginRecall(home, e, r, arrive, start)
		default:
			pr.scratch = pr.scratch[:0]
			e.sharers.forEach(func(i int) {
				if i != r.reqID {
					pr.scratch = append(pr.scratch, i)
				}
			})
			others := pr.scratch
			if len(others) == 0 {
				occ, send := cfg.DirBase, cfg.DirMsgSend
				if needData {
					occ += cfg.DRAMCycles
					send += cfg.DirBlockSend
				}
				n.busyUntil = start + occ
				e.state = dirExcl
				e.sharers.reset()
				e.owner = r.reqID
				pr.settle(e, pr.reply(home, r, n.busyUntil+send, needData))
				return
			}
			// Invalidate every other sharer, collect acknowledgements.
			pr.beginTxn(e, txn{r: r, arrive: arrive, acksLeft: len(others), needData: needData})
			if pr.forensics {
				pr.record(e, arrive, "inval round: %d sharers (%v from %d)",
					len(others), r.kind, r.reqID)
			}
			cost := cfg.DirBase + int64(len(others))*cfg.DirMsgSend
			if needData {
				cost += cfg.DRAMCycles
			}
			n.busyUntil = start + cost
			for _, s := range others {
				pr.Invals++
				if pr.check != nil {
					pr.check.ctrlOut[home]++
				}
				pr.countMsg(home, s, false)
				at := n.busyUntil + pr.latency(home, s) + pr.sendDelay()
				ev := pr.getEv()
				ev.kind, ev.id, ev.home, ev.block = evCtrlInval, s, home, r.block
				pr.Eng.ScheduleAction(at, ev)
			}
		}
	}
}

// beginRecall starts fetching the block back from its exclusive owner.
func (pr *Protocol) beginRecall(home int, e *entry, r request, arrive, start sim.Time) {
	n := pr.nodes[home]
	cfg := pr.Cfg
	pr.beginTxn(e, txn{r: r, arrive: arrive, acksLeft: 1, needData: true,
		recall: true, recallFrom: e.owner})
	if pr.forensics {
		pr.record(e, arrive, "recall owner %d (%v from %d)", e.owner, r.kind, r.reqID)
	}
	n.busyUntil = start + cfg.DirBase + cfg.DirMsgSend
	owner := e.owner
	if pr.check != nil {
		pr.check.ctrlOut[home]++
	}
	pr.countMsg(home, owner, false)
	at := n.busyUntil + pr.latency(home, owner) + pr.sendDelay()
	block := r.block
	// A GETS recall downgrades the owner to Shared; GETX/UPGRADE recalls
	// invalidate it.
	downgrade := r.kind == reqGETS
	ev := pr.getEv()
	ev.kind, ev.id, ev.home, ev.block, ev.flag = evCtrlRecall, owner, home, block, downgrade
	pr.Eng.ScheduleAction(at, ev)
}

// ctrlInval is the cache controller on node id invalidating block for an
// invalidation round. The controller acts independently of its processor;
// its cost appears only as transaction latency.
func (pr *Protocol) ctrlInval(id, home int, block uint64, at sim.Time, _ bool) {
	if fa, ok := pr.fillDeferral(id, block, at); ok {
		ev := pr.getEv()
		ev.kind, ev.id, ev.home, ev.block = evCtrlInval, id, home, block
		pr.Eng.ScheduleAction(fa, ev)
		return
	}
	cfg := pr.Cfg
	var st uint8
	if mutation == mutateSkipInval {
		// Test-only corruption: acknowledge without invalidating, leaving a
		// stale copy behind for the invariant checker to catch. Watchers
		// still wake so the test program itself cannot deadlock.
		st = pr.nodes[id].mem.Cache.Lookup(block)
	} else {
		st = pr.nodes[id].mem.Cache.Invalidate(block)
	}
	pr.wakeWatchers(id, block, at)
	if pr.forensics {
		pr.note(id, at, "invalidated %#x for home %d", block, home)
	}
	delay := cfg.InvalidateCycles
	withData := false
	switch st {
	case memsim.Shared:
		delay += cfg.ReplSharedClean
	case memsim.Modified:
		// Racing write permission revocation with dirty data (rare under
		// full-map, but possible across transaction boundaries).
		delay += cfg.ReplSharedDirty
		withData = true
	}
	pr.countMsg(id, home, withData)
	ackAt := at + delay + pr.latency(id, home) + pr.sendDelay()
	ev := pr.getEv()
	ev.kind, ev.home, ev.block, ev.flag, ev.id = evDirAck, home, block, withData, id
	pr.Eng.ScheduleAction(ackAt, ev)
}

// ctrlRecall is the cache controller on the exclusive owner servicing a
// recall: flush (downgrade or invalidate) and return the data.
func (pr *Protocol) ctrlRecall(id, home int, block uint64, at sim.Time, downgrade bool) {
	if fa, ok := pr.fillDeferral(id, block, at); ok {
		ev := pr.getEv()
		ev.kind, ev.id, ev.home, ev.block, ev.flag = evCtrlRecall, id, home, block, downgrade
		pr.Eng.ScheduleAction(fa, ev)
		return
	}
	cfg := pr.Cfg
	cache := pr.nodes[id].mem.Cache
	st := cache.Lookup(block)
	if st == memsim.Invalid {
		// The owner already evicted it; the writeback is (or will be) in
		// flight. Acknowledge without data.
		if pr.forensics {
			pr.note(id, at, "recall of %#x for home %d: already evicted", block, home)
		}
		pr.countMsg(id, home, false)
		ackAt := at + cfg.InvalidateCycles + pr.latency(id, home) + pr.sendDelay()
		ev := pr.getEv()
		ev.kind, ev.home, ev.block, ev.flag, ev.id = evDirAck, home, block, false, id
		pr.Eng.ScheduleAction(ackAt, ev)
		return
	}
	if downgrade {
		cache.SetState(block, memsim.Shared)
	} else {
		cache.Invalidate(block)
		pr.wakeWatchers(id, block, at)
	}
	if pr.forensics {
		pr.note(id, at, "recalled %#x for home %d (downgrade=%v)", block, home, downgrade)
	}
	delay := cfg.InvalidateCycles + cfg.ReplSharedDirty
	pr.countMsg(id, home, true)
	ackAt := at + delay + pr.latency(id, home) + pr.sendDelay()
	ev := pr.getEv()
	ev.kind, ev.home, ev.block, ev.flag, ev.id = evDirAck, home, block, true, id
	pr.Eng.ScheduleAction(ackAt, ev)
}

// dirAck processes an acknowledgement (with or without data) at the home.
func (pr *Protocol) dirAck(home int, block uint64, at sim.Time, withData bool, from int) {
	n := pr.nodes[home]
	e := pr.entryOf(home, block)
	if pr.check != nil {
		pr.check.acksIn[home]++
	}
	if pr.forensics {
		pr.record(e, at, "ack from %d (data=%v)", from, withData)
	}
	if e.pend == nil {
		// An ack with no transaction in flight means the protocol state
		// machine is inconsistent — a bug, not a simulated condition. Abort
		// with the block's history instead of panicking the host process.
		pr.Eng.Abort(&ProtocolError{
			Home: home, Block: block, Now: at,
			What: fmt.Sprintf(
				"acknowledgement from node %d for a block with no transaction in flight", from),
			History: e.history(),
		})
		return
	}
	cfg := pr.Cfg
	start := at
	if n.busyUntil > start {
		start = n.busyUntil
	}
	cost := cfg.DirBase
	if withData {
		cost += cfg.DirBlockRecv
		e.pend.gotData = true
	}
	n.busyUntil = start + cost
	e.pend.acksLeft--
	if e.pend.acksLeft > 0 {
		return
	}
	if e.pend.recall && !e.pend.gotData {
		// Owner had evicted; its writeback carries the data. Wait for it.
		e.pend.awaitWB = true
		return
	}
	pr.completeTxn(home, block, e)
}

// completeTxn finishes a pending transaction: update directory state, reply
// to the requester, and drain queued requests.
func (pr *Protocol) completeTxn(home int, block uint64, e *entry) {
	n := pr.nodes[home]
	cfg := pr.Cfg
	t := e.pend
	cost := cfg.DirMsgSend
	if t.needData {
		cost += cfg.DirBlockSend
	}
	n.busyUntil += cost

	switch t.r.kind {
	case reqGETS:
		e.state = dirShared
		e.sharers.reset()
		if !t.awaitWB { // owner kept a downgraded copy unless it had evicted
			e.sharers.set(t.recallFrom)
		}
		e.sharers.set(t.r.reqID)
		e.owner = -1
	case reqGETX, reqUPGRADE:
		e.state = dirExcl
		e.sharers.reset()
		e.owner = t.r.reqID
	}
	if pr.forensics {
		pr.record(e, n.busyUntil, "txn done: state=%d owner=%d sharers=%d",
			e.state, e.owner, e.sharers.count())
	}
	grantArrive := pr.reply(home, t.r, n.busyUntil, t.needData)
	if t.r.kind != reqGETS {
		pr.settle(e, grantArrive)
	}
	e.pend = nil

	when := n.busyUntil
	for _, w := range t.waiters {
		at := when
		if w.arrive > at {
			at = w.arrive
		}
		// Straight to dirServe: the queued request already drew its
		// fault decision when it first arrived.
		ev := pr.getEv()
		ev.kind, ev.home, ev.r = evDirServe, home, w.r
		pr.Eng.ScheduleAction(at, ev)
	}
	// Recycle only now: the scheduled events hold copies of the requests,
	// so the next transaction reusing the queue's backing array cannot
	// clobber anything in flight.
	pr.txnFree = append(pr.txnFree, t)
}

// dirWriteback processes a dirty-block writeback arriving at home.
func (pr *Protocol) dirWriteback(home int, block uint64, from int, at sim.Time) {
	n := pr.nodes[home]
	e := pr.entryOf(home, block)
	start := at
	if n.busyUntil > start {
		start = n.busyUntil
	}
	n.busyUntil = start + pr.Cfg.DirBase + pr.Cfg.DirBlockRecv
	if pr.forensics {
		pr.record(e, at, "writeback from %d", from)
	}

	if t := e.pend; t != nil && t.recall && t.recallFrom == from {
		// The writeback raced the recall; it carries the data the
		// transaction needs.
		t.gotData = true
		if t.awaitWB {
			pr.completeTxn(home, block, e)
		}
		return
	}
	if e.state == dirExcl && e.owner == from {
		e.state = dirIdle
		e.owner = -1
		e.sharers.reset()
	}
	// Otherwise the writeback is stale (ownership already moved on); memory
	// was updated by the recall path.
	if pr.check != nil {
		pr.check.verifyBlock(home, block, at)
	}
}

// reply delivers the directory's response to the requester: at arrival the
// requester's cache controller installs the block (event context, so later
// recalls and invalidations observe it), then the processor wakes.
func (pr *Protocol) reply(home int, r request, when sim.Time, withData bool) sim.Time {
	pr.countMsg(home, r.reqID, withData)
	if pr.check != nil {
		pr.check.grantsOut[home]++
	}
	if pr.wd != nil {
		// A granted transaction is the watchdog's unit of progress.
		pr.wd.Progress(when)
	}
	arrive := when + pr.latency(home, r.reqID) + pr.sendDelay()
	if pr.forensics {
		pr.record(pr.entryOf(home, r.block), when, "grant %v to %d (data=%v, arrives @%d)",
			r.kind, r.reqID, withData, arrive)
	}
	if pr.ctrl != nil {
		// Register the in-flight fill so invalidations and recalls that
		// overtake it are deferred (see fillDeferral).
		pr.nodes[r.reqID].fills[r.block] = arrive
	}
	ev := pr.getEv()
	ev.kind, ev.home, ev.r = evGrant, home, r
	pr.Eng.ScheduleAction(arrive, ev)
	return arrive
}

// grantArrived runs at the requester when the grant lands: clear the
// in-flight fill, install the block in event context (so later recalls and
// invalidations observe it), then wake the processor with the replacement
// cost it owes.
func (pr *Protocol) grantArrived(home int, r request, arrive sim.Time) {
	if pr.ctrl != nil {
		delete(pr.nodes[r.reqID].fills, r.block)
	}
	state := uint8(memsim.Shared)
	if r.kind != reqGETS {
		state = memsim.Modified
	}
	repl := pr.installAt(r.m, r.block, state, arrive)
	r.m.P.WakeVals(arrive, repl, 0)
	if pr.check != nil {
		// The transaction settled with this install; verify the block's
		// global invariants at the first claimed-consistent moment.
		pr.check.verifyBlock(home, r.block, arrive)
	}
}

// settle gives a freshly granted write until one quantum past its arrival
// to retire before the directory serves the block again.
func (pr *Protocol) settle(e *entry, grantArrive sim.Time) {
	until := grantArrive + pr.Eng.Quantum
	if until > e.settleUntil {
		e.settleUntil = until
	}
}
