package machine

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// EncodeState contributes the whole message-passing machine's canonical
// image: engine, barrier, interconnect (and fault plan when armed), then per
// node the memory system, the reliable-transport window when present, and
// whatever computation state the running program registered via OnState.
func (m *MPMachine) EncodeState(enc *snapshot.Enc) {
	enc.Section("mp-machine", func(enc *snapshot.Enc) {
		m.Eng.EncodeState(enc)
		m.Bar.EncodeState(enc)
		m.Net.EncodeState(enc)
		if m.Net.Faults != nil {
			m.Net.Faults.EncodeState(enc)
		}
		for _, n := range m.Nodes {
			enc.Section("node", func(enc *snapshot.Enc) {
				n.Mem.EncodeState(enc)
				if rel := n.AM.Rel(); rel != nil {
					rel.EncodeState(enc)
				}
				enc.U32(uint32(len(n.appState)))
				for _, fn := range n.appState {
					fn(enc)
				}
			})
		}
	})
}

// EncodeStats writes this machine's full stats accounting canonically.
func (m *MPMachine) EncodeStats(enc *snapshot.Enc) { encodeAccts(enc, m.Eng) }

// EncodeState contributes the whole shared-memory machine's canonical image:
// engine, barrier, parmacs runtime, coherence layer (directories, in-flight
// transactions, checker, control-fault plan), then per node the memory
// system and registered program state.
func (m *SMMachine) EncodeState(enc *snapshot.Enc) {
	enc.Section("sm-machine", func(enc *snapshot.Enc) {
		m.Eng.EncodeState(enc)
		m.RT.Bar.EncodeState(enc)
		m.RT.EncodeState(enc)
		m.Pr.EncodeState(enc)
		for _, n := range m.Nodes {
			enc.Section("node", func(enc *snapshot.Enc) {
				n.Mem.EncodeState(enc)
				enc.U32(uint32(len(n.appState)))
				for _, fn := range n.appState {
					fn(enc)
				}
			})
		}
	})
}

// EncodeStats writes this machine's full stats accounting canonically.
func (m *SMMachine) EncodeStats(enc *snapshot.Enc) { encodeAccts(enc, m.Eng) }

func encodeAccts(enc *snapshot.Enc, eng *sim.Engine) {
	enc.Section("stats", func(enc *snapshot.Enc) {
		procs := eng.Procs()
		enc.U32(uint32(len(procs)))
		for _, p := range procs {
			p.Acct.EncodeState(enc)
		}
	})
}
