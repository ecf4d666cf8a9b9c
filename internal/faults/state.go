package faults

import (
	"sort"

	"repro/internal/snapshot"
)

// EncodeState contributes the fault plan's replay-relevant state: each
// source node's RNG position (sorted by node, since map order and stream
// creation order are not meaningful) and the consultation count. The
// compiled schedule itself is configuration, reconstructed from the run
// spec, so only the cursors into the random streams need to be pinned.
func (p *Plan) EncodeState(enc *snapshot.Enc) {
	enc.Section("faultplan", func(enc *snapshot.Enc) {
		srcs := make([]int, 0, len(p.streams))
		for src := range p.streams {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		enc.U32(uint32(len(srcs)))
		for _, src := range srcs {
			enc.I64(int64(src))
			enc.U64(p.streams[src].State())
		}
		enc.I64(p.Decisions)
	})
}

// EncodeState contributes the control-fault plan's replay-relevant state:
// RNG position plus the decision/NACK/delay tallies.
func (p *CtrlPlan) EncodeState(enc *snapshot.Enc) {
	enc.Section("ctrlplan", func(enc *snapshot.Enc) {
		enc.U64(p.rng.State())
		enc.I64(p.Decisions)
		enc.I64(p.NACKs)
		enc.I64(p.Delayed)
	})
}
