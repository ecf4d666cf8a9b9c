package coherence

import (
	"sort"

	"repro/internal/snapshot"
)

// EncodeState contributes the whole coherence layer's image to a canonical
// state snapshot: aggregate transaction counters, then per node the
// directory-server clock and every directory entry — sharer sets, owners,
// in-flight transactions, queued waiters, settle windows, and (when
// forensics are armed) the transition-history rings — plus in-flight fills,
// spin-wait watchers, and the invariant checker's conservation tallies.
// Directory entries are walked in ascending block order and every map is
// iterated in sorted key order, so the bytes are canonical.
func (pr *Protocol) EncodeState(enc *snapshot.Enc) {
	enc.Section("coherence", func(enc *snapshot.Enc) {
		enc.I64(pr.Reads)
		enc.I64(pr.Writes)
		enc.I64(pr.Upgrades)
		enc.I64(pr.Writebacks)
		enc.I64(pr.Invals)
		enc.I64(pr.QueueDelay)
		enc.I64(pr.QueueEvents)
		enc.I64(pr.NACKsSent)
		enc.I64(int64(pr.outstanding))
		enc.Bool(pr.forensics)

		enc.U32(uint32(len(pr.nodes)))
		for _, n := range pr.nodes {
			pr.encodeNode(enc, n)
		}

		if pr.ctrl != nil {
			pr.ctrl.EncodeState(enc)
		}
		if pr.check != nil {
			enc.Section("checker", func(enc *snapshot.Enc) {
				enc.I64(pr.check.Violations)
				enc.I64(pr.check.Checks)
				enc.I64s(pr.check.reqsIn)
				enc.I64s(pr.check.grantsOut)
				enc.I64s(pr.check.nacksOut)
				enc.I64s(pr.check.ctrlOut)
				enc.I64s(pr.check.acksIn)
			})
		}
	})
}

func (pr *Protocol) encodeNode(enc *snapshot.Enc, n *node) {
	enc.Section("dirnode", func(enc *snapshot.Enc) {
		enc.I64(n.busyUntil)

		var entries uint32
		n.walk(func(uint64, *entry) bool { entries++; return true })
		enc.U32(entries)
		n.walk(func(b uint64, e *entry) bool {
			enc.U64(b)
			encodeEntry(enc, e, pr.forensics)
			return true
		})

		fills := make([]uint64, 0, len(n.fills))
		for b := range n.fills {
			fills = append(fills, b)
		}
		sort.Slice(fills, func(i, j int) bool { return fills[i] < fills[j] })
		enc.U32(uint32(len(fills)))
		for _, b := range fills {
			enc.U64(b)
			enc.I64(n.fills[b])
		}

		watched := make([]uint64, 0, len(n.watchers))
		for b := range n.watchers {
			watched = append(watched, b)
		}
		sort.Slice(watched, func(i, j int) bool { return watched[i] < watched[j] })
		enc.U32(uint32(len(watched)))
		for _, b := range watched {
			enc.U64(b)
			ws := n.watchers[b]
			enc.U32(uint32(len(ws)))
			for _, p := range ws {
				enc.I64(int64(p.ID))
			}
		}

		if pr.forensics {
			enc.Str(n.lastAct)
			enc.I64(n.lastActAt)
		}
	})
}

func encodeEntry(enc *snapshot.Enc, e *entry, forensics bool) {
	enc.U8(uint8(e.state))
	e.sharers.encode(enc)
	enc.I64(int64(e.owner))
	t := e.pend
	enc.Bool(t != nil) // busy
	enc.I64(e.settleUntil)

	var waiters []pendingReq
	if t != nil {
		waiters = t.waiters
		enc.Bool(true)
		enc.I64(int64(t.r.kind))
		enc.I64(int64(t.r.reqID))
		enc.U64(t.r.block)
		enc.I64(t.arrive)
		enc.I64(int64(t.acksLeft))
		enc.Bool(t.needData)
		enc.Bool(t.recall)
		enc.I64(int64(t.recallFrom))
		enc.Bool(t.gotData)
		enc.Bool(t.awaitWB)
	} else {
		enc.Bool(false)
	}

	enc.U32(uint32(len(waiters)))
	for _, w := range waiters {
		enc.I64(int64(w.r.kind))
		enc.I64(int64(w.r.reqID))
		enc.U64(w.r.block)
		enc.I64(w.arrive)
	}

	if forensics {
		enc.I64(int64(e.histCount()))
		for _, h := range e.history() {
			enc.Str(h)
		}
	}
}
