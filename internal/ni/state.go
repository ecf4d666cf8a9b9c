package ni

import "repro/internal/snapshot"

// encodePacket writes one queued packet's full wire-visible image.
func encodePacket(enc *snapshot.Enc, pkt *Packet) {
	enc.I64(int64(pkt.Src))
	enc.I64(int64(pkt.Dst))
	enc.I64(int64(pkt.Tag))
	for _, a := range pkt.Args {
		enc.U64(a)
	}
	enc.U64s(pkt.Words[:pkt.NWords])
	enc.I64(int64(pkt.DataBytes))
	enc.I64(pkt.Arrive)
	enc.U64(pkt.Seq)
	enc.Bool(pkt.Corrupt)
}

// EncodeState contributes the interconnect image to a canonical state
// snapshot: the conservation counters and, per interface, the blocked-waiter
// flag, the queue length and the queued packets, walked from the FIFO's head
// so they are written in arrival order.
func (n *Network) EncodeState(enc *snapshot.Enc) {
	enc.Section("network", func(enc *snapshot.Enc) {
		enc.I64(n.Injected)
		enc.I64(n.Delivered)
		enc.I64(n.Dropped)
		enc.I64(n.Duplicated)
		enc.I64(n.Corrupted)
		enc.U32(uint32(len(n.nis)))
		for _, ni := range n.nis {
			enc.Section("ni", func(enc *snapshot.Enc) {
				enc.Bool(ni.waiter)
				enc.U32(uint32(ni.qlen()))
				for d := ni.head; d != nil; d = d.next {
					encodePacket(enc, &d.pkt)
				}
			})
		}
	})
}
