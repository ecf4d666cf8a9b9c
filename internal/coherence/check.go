package coherence

// Runtime verification of the Dir_nNB protocol's coherence invariants.
//
// The paper's results assume a bug-free protocol: a regression that, say,
// leaves a stale Shared copy behind an invalidation round would not crash
// this simulator — data values live in Go backing stores — it would silently
// corrupt the time taxonomy (missing misses, missing invalidations). The
// Checker makes such regressions fail loudly: after every directory
// transaction settles it re-derives the protocol's global invariants from
// the directories and caches (the simulator is omniscient, so the check is
// exact), and the first violation aborts the run through the engine's
// structured Abort path with the block's recent transition history attached.
//
// Invariants verified at every settle point (and once more, globally, at end
// of run via Final):
//
//  1. Single-writer/multiple-reader: at most one cache holds a block
//     Modified, and a Modified copy never coexists with any other copy.
//  2. Directory/cache agreement: every cached copy is recorded at the home
//     — in the sharer bitset (dirShared) or as the owner (dirExcl); an
//     idle directory entry means no cache holds the block. (The converse
//     may legally over-approximate: silent clean evictions leave stale
//     sharer bits, which the protocol tolerates by design.)
//  3. Ownership: a Modified copy implies the home is in dirExcl with that
//     node registered as owner.
//  4. Per-home message conservation (checked in Final): every coherence
//     request that arrived at a home was answered by exactly one grant or
//     one NACK, and every invalidation/recall the home sent was answered by
//     exactly one acknowledgement.
//
// Blocks with a transaction in flight (entry busy) are skipped — transient
// states are legal mid-transaction; settle points are exactly the moments
// the protocol claims a consistent state.
//
// With the checker disabled the protocol takes none of these paths and runs
// bit-identical to the unchecked tree (a regression test asserts this).

import (
	"fmt"
	"strings"

	"repro/internal/memsim"
	"repro/internal/sim"
)

// InvariantError is the structured report of a coherence invariant
// violation: which rule broke, where, when, and the block's recent
// transition history for forensics.
type InvariantError struct {
	Rule    string // the violated invariant ("single-writer", "dir-cache-agreement", "ownership", "conservation")
	Block   uint64
	Home    int
	Now     sim.Time
	Detail  string
	History []string // the block's bounded transition ring, oldest first
}

func (e *InvariantError) Error() string {
	msg := fmt.Sprintf("coherence: invariant %q violated @%d: block %#x home %d: %s",
		e.Rule, e.Now, e.Block, e.Home, e.Detail)
	for _, h := range e.History {
		msg += "\n    " + h
	}
	return msg
}

// ProtocolError reports an internally inconsistent directory action — e.g.
// an acknowledgement arriving for a block with no transaction in flight —
// surfaced through the engine abort path instead of a panic.
type ProtocolError struct {
	Home    int
	Block   uint64
	Now     sim.Time
	What    string
	History []string
}

func (e *ProtocolError) Error() string {
	msg := fmt.Sprintf("coherence: protocol error @%d: block %#x home %d: %s",
		e.Now, e.Block, e.Home, e.What)
	for _, h := range e.History {
		msg += "\n    " + h
	}
	return msg
}

// Checker is the runtime invariant checker for one Protocol. Create with
// Protocol.EnableChecker before the simulation starts.
type Checker struct {
	pr *Protocol

	// Violations counts invariant failures observed (the run aborts on the
	// first, so this exceeds 1 only if the abort races further settles
	// within the same quantum).
	Violations int64
	// Checks counts settle-point verifications performed.
	Checks int64

	// Per-home conservation tallies.
	reqsIn, grantsOut, nacksOut []int64 // request/response balance
	ctrlOut, acksIn             []int64 // invalidation+recall / ack balance
}

func newChecker(pr *Protocol) *Checker {
	n := pr.Cfg.Procs
	return &Checker{
		pr:     pr,
		reqsIn: make([]int64, n), grantsOut: make([]int64, n), nacksOut: make([]int64, n),
		ctrlOut: make([]int64, n), acksIn: make([]int64, n),
	}
}

// fail records a violation and aborts the run (first abort wins).
func (ck *Checker) fail(rule string, block uint64, home int, at sim.Time, detail string) {
	ck.Violations++
	var hist []string
	if e := ck.pr.lookup(home, block); e != nil {
		hist = e.history()
	}
	ck.pr.Eng.Abort(&InvariantError{
		Rule: rule, Block: block, Home: home, Now: at, Detail: detail, History: hist,
	})
}

// holders returns the ids of every cache holding block, and of those holding
// it Modified.
func (ck *Checker) holders(block uint64) (all, modified []int) {
	for _, n := range ck.pr.nodes {
		switch n.mem.Cache.Lookup(block) {
		case memsim.Shared:
			all = append(all, n.id)
		case memsim.Modified:
			all = append(all, n.id)
			modified = append(modified, n.id)
		}
	}
	return all, modified
}

// verifyBlock checks invariants 1-3 for one block after its transaction
// settled. Busy entries (a new transaction already in flight) are skipped.
func (ck *Checker) verifyBlock(home int, block uint64, at sim.Time) {
	e := ck.pr.lookup(home, block)
	if e == nil || e.pend != nil {
		return
	}
	ck.Checks++
	all, modified := ck.holders(block)
	if len(modified) > 1 {
		ck.fail("single-writer", block, home, at,
			fmt.Sprintf("%d caches hold the block Modified: %v", len(modified), modified))
		return
	}
	if len(modified) == 1 && len(all) > 1 {
		ck.fail("single-writer", block, home, at,
			fmt.Sprintf("Modified copy at node %d coexists with copies at %v", modified[0], all))
		return
	}
	if len(modified) == 1 && (e.state != dirExcl || e.owner != modified[0]) {
		ck.fail("ownership", block, home, at,
			fmt.Sprintf("node %d holds the block Modified but the directory records state=%d owner=%d",
				modified[0], e.state, e.owner))
		return
	}
	switch e.state {
	case dirIdle:
		if len(all) > 0 {
			ck.fail("dir-cache-agreement", block, home, at,
				fmt.Sprintf("directory idle but nodes %v hold copies", all))
		}
	case dirShared:
		for _, h := range all {
			if !e.sharers.has(h) {
				ck.fail("dir-cache-agreement", block, home, at,
					fmt.Sprintf("node %d holds a %s copy absent from the sharer bitset",
						h, memsim.StateName(ck.pr.nodes[h].mem.Cache.Lookup(block))))
				return
			}
		}
	case dirExcl:
		for _, h := range all {
			if h != e.owner {
				ck.fail("dir-cache-agreement", block, home, at,
					fmt.Sprintf("directory exclusive at owner %d but node %d holds a copy", e.owner, h))
				return
			}
		}
	}
}

// Final runs the end-of-run global verification: no transaction may still be
// in flight, every block must satisfy invariants 1-3, and the per-home
// message conservation balances must close. Call after Engine.Run returns
// nil; a non-nil result is the first violation found.
func (ck *Checker) Final() error {
	pr := ck.pr
	now := pr.Eng.Now()
	var err error
	for home, n := range pr.nodes {
		n.walk(func(b uint64, e *entry) bool {
			if t := e.pend; t != nil {
				err = &InvariantError{
					Rule: "conservation", Block: b, Home: home, Now: now,
					Detail: fmt.Sprintf("transaction still in flight at end of run (busy=true waiters=%d)",
						len(t.waiters)),
					History: e.history(),
				}
				return false
			}
			ck.verifyBlock(home, b, now)
			err = pr.Eng.Aborted()
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	for home := range pr.nodes {
		if got, want := ck.grantsOut[home]+ck.nacksOut[home], ck.reqsIn[home]; got != want {
			return &InvariantError{
				Rule: "conservation", Home: home, Now: now,
				Detail: fmt.Sprintf("home answered %d of %d requests (%d grants + %d NACKs)",
					got, want, ck.grantsOut[home], ck.nacksOut[home]),
			}
		}
		if ck.acksIn[home] != ck.ctrlOut[home] {
			return &InvariantError{
				Rule: "conservation", Home: home, Now: now,
				Detail: fmt.Sprintf("home sent %d invalidations/recalls but collected %d acknowledgements",
					ck.ctrlOut[home], ck.acksIn[home]),
			}
		}
	}
	return nil
}

// stallReport renders the coherence layer's forensics for a watchdog stall:
// every block with a transaction in flight (the hot blocks), its pending
// request, the requests queued behind it and its transition history, and
// each node's last protocol action. Blocks are walked in ascending order so
// the report is deterministic.
func (pr *Protocol) stallReport() string {
	var b strings.Builder
	b.WriteString("coherence stall report:\n")
	for home, n := range pr.nodes {
		n.walk(func(blk uint64, e *entry) bool {
			t := e.pend
			if t == nil {
				return true
			}
			fmt.Fprintf(&b, "  hot block %#x at home %d: state=%d busy=true waiters=%d\n",
				blk, home, e.state, len(t.waiters))
			fmt.Fprintf(&b, "    pending: %v from node %d (arrived @%d, acksLeft=%d recall=%v awaitWB=%v)\n",
				t.r.kind, t.r.reqID, t.arrive, t.acksLeft, t.recall, t.awaitWB)
			for _, w := range t.waiters {
				fmt.Fprintf(&b, "    queued: %v from node %d (arrived @%d)\n",
					w.r.kind, w.r.reqID, w.arrive)
			}
			for _, h := range e.history() {
				fmt.Fprintf(&b, "    hist: %s\n", h)
			}
			return true
		})
	}
	for id, n := range pr.nodes {
		if n.lastAct != "" {
			fmt.Fprintf(&b, "  node %d last action: %s @%d\n", id, n.lastAct, n.lastActAt)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
