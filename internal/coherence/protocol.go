// Package coherence implements the shared-memory machine's full-map
// write-invalidate Dir_nNB cache-coherence protocol (Agarwal et al., ISCA
// 1988), as simulated in the paper's shared-memory Wind Tunnel (§4.2).
//
// Every node's local memory has global addresses. A directory at each
// block's home node tracks the copyset; read misses fetch a read-only copy,
// writes to blocks with other sharers invalidate them (the fewest possible
// invalidations, since the map is full), and writes stall the processor
// until ownership is granted — the memory is sequentially consistent. The
// directory at each node is a serial server, so bursts of requests to one
// home queue and experience contention delay (the paper observes ~200-cycle
// average queuing delay at Gauss's pivot-row home).
//
// Data values live in the applications' Go backing stores; the protocol
// provides timing, traffic accounting, and the invalidation signals that
// spin-wait primitives sleep on.
package coherence

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Protocol is the machine-wide coherence state: one directory and cache
// controller per node.
type Protocol struct {
	Eng *sim.Engine
	Cfg *cost.Config

	nodes  []*node
	pshift uint

	// Aggregate transaction counters, for tests and reports. Reads, Writes,
	// Upgrades, and Writebacks are bumped from processor context; the rest
	// are only touched by directory events (engine context).
	Reads, Writes, Upgrades, Writebacks, Invals int64
	QueueDelay, QueueEvents                     int64
	NACKsSent                                   int64

	// Robustness layers, all off by default (see the Enable methods). With
	// every one disabled the protocol takes none of their paths and runs
	// bit-identical to a tree without them.
	check *Checker            // runtime invariant checker
	ctrl  *faults.CtrlPlan    // control-message fault injection
	smf   cost.SMFaultsConfig // retry/backoff tuning, valid when ctrl != nil
	wd    *sim.Watchdog       // livelock watchdog

	// forensics enables the per-entry transition rings and per-node
	// last-action records that the layers above report from. Host-CPU cost
	// only; gating it keeps the common case fast, not the timing honest.
	forensics bool

	// outstanding counts requests issued but not yet granted, so the
	// watchdog knows whether quiet means idle or stalled.
	outstanding int64

	// evFree recycles protocol events (see getEv).
	evFree []*cohEvent

	// txnFree recycles completed transactions, with their waiter queues'
	// backing arrays (engine context only; see beginTxn).
	txnFree []*txn

	// scratch is dirServe's reusable sharer-id buffer (engine context only).
	scratch []int
}

type node struct {
	id  int
	mem *memsim.Mem

	// The node's directory, as home: chunks finds a chunk by
	// block>>chunkShift, and order holds the same chunks in ascending key
	// order for the walks that must be canonical (see chunk).
	chunks    map[uint64]*chunk
	order     []*chunk
	busyUntil sim.Time

	// watchers maps block -> the spinners to wake when this node's copy is
	// invalidated; watchFree recycles the emptied slices.
	watchers  map[uint64][]*sim.Proc
	watchFree [][]*sim.Proc

	// fills maps block -> arrival time of a granted reply still in flight to
	// this node's cache. Maintained only under fault injection, where a
	// delayed fill can be overtaken by an invalidation or recall for the
	// same block; the controller defers such messages past the fill (MSHR
	// behavior) so stale ghost copies can never form.
	fills map[uint64]sim.Time

	// lastAct/lastActAt are the node's most recent protocol action, for
	// stall reports (forensics only).
	lastAct   string
	lastActAt sim.Time

	// pend is the node's in-flight requester transaction (see step.go).
	pend stepPend
}

// New creates the protocol for cfg.Procs nodes.
func New(eng *sim.Engine, cfg *cost.Config) *Protocol {
	pr := &Protocol{Eng: eng, Cfg: cfg}
	for 1<<pr.pshift < cfg.PageBytes {
		pr.pshift++
	}
	pr.nodes = make([]*node, cfg.Procs)
	for i := range pr.nodes {
		pr.nodes[i] = &node{
			id:       i,
			chunks:   make(map[uint64]*chunk),
			watchers: make(map[uint64][]*sim.Proc),
			fills:    make(map[uint64]sim.Time),
		}
	}
	return pr
}

// AttachMem registers node i's memory system. Must be called for every node
// before the simulation starts.
func (pr *Protocol) AttachMem(i int, m *memsim.Mem) {
	pr.nodes[i].mem = m
	m.Shared = pr
}

func (pr *Protocol) homeOf(block uint64) int {
	addr := block << pr.nodes[0].mem.Cache.BlockShift()
	return memsim.HomeOf(addr, pr.Cfg.Procs, pr.pshift)
}

// latency returns the one-way message latency between two nodes: the network
// latency, or the cheaper message-to-self for a node's own directory.
func (pr *Protocol) latency(a, b int) int64 {
	if a == b {
		return pr.Cfg.MsgToSelf
	}
	return pr.Cfg.NetLatency
}

// countMsg tallies one protocol message sent by node n. Messages a node
// sends to itself never enter the network and are not counted as bytes.
func (pr *Protocol) countMsg(n, dst int, carriesBlock bool) {
	if n == dst {
		return
	}
	acct := pr.nodes[n].mem.P.Acct
	acct.Add(stats.CntMessages, 1)
	if carriesBlock {
		acct.Add(stats.CntBytesData, int64(pr.Cfg.SMMsgBytes-pr.Cfg.SMMsgControlBytes))
		acct.Add(stats.CntBytesControl, int64(pr.Cfg.SMMsgControlBytes))
	} else {
		acct.Add(stats.CntBytesControl, int64(pr.Cfg.SMMsgBytes))
	}
}

// Requester wakes carry two typed values through sim.Proc.WakeVals — the
// replacement cost of whatever the installed block displaced, and whether
// the home refused the request (NACK) and it must be retried. Typed values
// rather than a struct payload because Proc.Wake's interface payload would
// box a heap allocation onto every miss.

// EnableChecker arms the runtime invariant checker (see check.go). Must be
// called before the simulation starts; returns the checker for end-of-run
// verification and counters. Idempotent.
func (pr *Protocol) EnableChecker() *Checker {
	if pr.check == nil {
		pr.check = newChecker(pr)
		pr.forensics = true
	}
	return pr.check
}

// Checker returns the armed invariant checker, or nil.
func (pr *Protocol) Checker() *Checker { return pr.check }

// EnableCtrlFaults arms control-message fault injection with the given
// tuning (pass it through cost.SMFaultsConfig.WithDefaults first). Must be
// called before the simulation starts.
func (pr *Protocol) EnableCtrlFaults(f cost.SMFaultsConfig) *faults.CtrlPlan {
	pr.smf = f
	pr.ctrl = faults.CtrlFromConfig(f, pr.Cfg.NetLatency)
	pr.forensics = true
	return pr.ctrl
}

// EnableWatchdog arms the coherence livelock watchdog: if some request has
// been outstanding and no directory transaction granted a reply for window
// cycles of virtual time, the run aborts with a sim.StallError carrying the
// stall report (hot blocks, pending requests, per-node last actions). Must
// be called before the simulation starts.
func (pr *Protocol) EnableWatchdog(window sim.Time) *sim.Watchdog {
	pr.wd = pr.Eng.AddWatchdog("coherence", window,
		func() bool { return pr.outstanding > 0 }, pr.stallReport)
	pr.forensics = true
	return pr.wd
}

// record appends one event to block entry e's bounded transition ring.
// Forensics only: costs host CPU, never virtual time.
func (pr *Protocol) record(e *entry, at sim.Time, format string, args ...any) {
	if !pr.forensics {
		return
	}
	if e.hist == nil {
		e.hist = &histRing{}
	}
	e.hist.recs[e.hist.n%histLen] = histRec{at: at, ev: fmt.Sprintf(format, args...)}
	e.hist.n++
}

// note updates node id's last-protocol-action forensics line.
func (pr *Protocol) note(id int, at sim.Time, format string, args ...any) {
	if !pr.forensics {
		return
	}
	n := pr.nodes[id]
	n.lastAct = fmt.Sprintf(format, args...)
	n.lastActAt = at
}

// sendDelay returns the fault-injected extra latency, if any, for the
// protocol message being sent.
func (pr *Protocol) sendDelay() sim.Time {
	if pr.ctrl == nil {
		return 0
	}
	return pr.ctrl.DecideMessage().Delay
}

// fillDeferral reports whether a cache-controller action on node id must be
// deferred because a granted fill for block is still in flight to that node
// — an invalidation or recall that overtook the data reply it logically
// follows — and if so, until when. Real controllers hold such messages in
// the MSHR until the fill completes; without this, a delayed fill would
// install a ghost copy the directory no longer records. Only possible under
// fault injection; callers reschedule themselves at the returned time.
func (pr *Protocol) fillDeferral(id int, block uint64, at sim.Time) (sim.Time, bool) {
	if pr.ctrl == nil {
		return 0, false
	}
	fa, ok := pr.nodes[id].fills[block]
	if !ok {
		return 0, false
	}
	if fa < at {
		fa = at
	}
	return fa, true
}

// installAt runs in event context at reply arrival: the cache controller
// installs (or upgrades) the block and disposes of the victim. It returns
// the replacement cycles to charge the waking processor.
func (pr *Protocol) installAt(m *memsim.Mem, block uint64, state uint8, at sim.Time) int64 {
	if cur := m.Cache.Lookup(block); cur != memsim.Invalid {
		// Upgrade of a still-resident read-only line (or a redundant grant).
		if state == memsim.Modified && cur == memsim.Shared {
			m.Cache.SetState(block, memsim.Modified)
		}
		return 0
	}
	victim := m.Cache.Insert(block, state)
	switch {
	case victim.State == memsim.Invalid:
		return 0
	case !memsim.IsShared(victim.Tag << m.Cache.BlockShift()):
		return pr.Cfg.ReplPrivate
	case victim.State == memsim.Shared:
		return pr.Cfg.ReplSharedClean
	default: // dirty shared victim: write back from event context
		home := pr.homeOf(victim.Tag)
		pr.Writebacks++
		pr.countMsg(m.P.ID, home, true)
		ev := pr.getEv()
		ev.kind, ev.home, ev.block, ev.id = evWriteback, home, victim.Tag, m.P.ID
		pr.Eng.ScheduleAction(at+pr.latency(m.P.ID, home), ev)
		return pr.Cfg.ReplSharedDirty
	}
}

// Evict implements memsim.SharedHandler: replacement of a shared block.
// Clean copies are dropped silently (the directory learns when it next
// invalidates); dirty blocks write back to their home.
func (pr *Protocol) Evict(m *memsim.Mem, victim memsim.Line, cat stats.Category) {
	p := m.P
	if victim.State == memsim.Shared {
		p.ChargeStall(cat, pr.Cfg.ReplSharedClean)
		return
	}
	p.ChargeStall(cat, pr.Cfg.ReplSharedDirty)
	home := pr.homeOf(victim.Tag)
	pr.Writebacks++
	pr.countMsg(p.ID, home, true)
	ev := pr.getEv()
	ev.kind, ev.home, ev.block, ev.id = evWriteback, home, victim.Tag, p.ID
	p.ScheduleAction(p.Clock()+pr.latency(p.ID, home), ev)
}

// Flush implements memsim.SharedHandler: an explicit software flush. Dirty
// data writes back as usual; a clean copy sends the home a replacement
// hint, removing this node from the copyset so future writers need not
// invalidate it — "changing a 2-message invalidate into a single-message
// cache replacement operation" (paper §5.3.4).
func (pr *Protocol) Flush(m *memsim.Mem, victim memsim.Line, cat stats.Category) {
	p := m.P
	if victim.State == memsim.Modified {
		pr.Evict(m, victim, cat)
		return
	}
	p.ChargeStall(cat, pr.Cfg.ReplSharedClean)
	home := pr.homeOf(victim.Tag)
	pr.countMsg(p.ID, home, false)
	ev := pr.getEv()
	ev.kind, ev.home, ev.block, ev.id = evFlushHint, home, victim.Tag, p.ID
	p.ScheduleAction(p.Clock()+pr.latency(p.ID, home), ev)
}

// Watch registers p to be woken when the block containing addr is
// invalidated in p's own cache. Used by spin-wait primitives: an MCS lock
// holder's release write invalidates the spinner's cached copy, which is
// exactly the wake signal. A spinner may only sleep while it holds a valid
// copy — if the line has already been invalidated (the signal raced ahead of
// the registration), Watch reports false and the caller must re-read.
func (pr *Protocol) Watch(m *memsim.Mem, addr uint64) bool {
	n := pr.nodes[m.P.ID]
	block := m.Cache.BlockOf(addr)
	if m.Cache.Lookup(block) == memsim.Invalid {
		return false
	}
	ws, ok := n.watchers[block]
	if k := len(n.watchFree); !ok && k > 0 {
		ws = n.watchFree[k-1]
		n.watchFree = n.watchFree[:k-1]
	}
	n.watchers[block] = append(ws, m.P)
	return true
}

// wakeWatchers releases every processor watching block on node id.
func (pr *Protocol) wakeWatchers(id int, block uint64, at sim.Time) {
	n := pr.nodes[id]
	ws := n.watchers[block]
	if len(ws) == 0 {
		return
	}
	delete(n.watchers, block)
	for _, p := range ws {
		p.Wake(at)
	}
	n.watchFree = append(n.watchFree, ws[:0])
}

// DirStateOf reports the directory state of the block containing addr, for
// tests: "idle", "shared", or "excl", plus the sharer count.
func (pr *Protocol) DirStateOf(addr uint64) (string, int) {
	bs := pr.nodes[0].mem.Cache.BlockShift()
	block := addr >> bs
	e := pr.lookup(pr.homeOf(block), block)
	if e == nil {
		return "idle", 0
	}
	switch e.state {
	case dirIdle:
		return "idle", 0
	case dirShared:
		return "shared", e.sharers.count()
	case dirExcl:
		return "excl", 1
	}
	return fmt.Sprintf("state(%d)", e.state), 0
}

// mutation is a test-only protocol-corruption switch (see export_test.go):
// the mutation tests plant a known protocol bug and assert the invariant
// checker catches it, proving the checker actually discriminates.
var mutation int

const (
	mutateNone = iota
	// mutateSkipInval makes the cache controller acknowledge an
	// invalidation without invalidating — the classic lost-invalidation bug,
	// which leaves a stale Shared copy alive across a write.
	mutateSkipInval
)
