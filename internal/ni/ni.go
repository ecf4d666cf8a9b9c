// Package ni models the message-passing machine's memory-mapped network
// interface, patterned on the CM-5 data network interface (paper §4.1,
// Table 2): incoming and outgoing FIFOs for packets of up to 20 bytes
// (a tag word plus 16 payload bytes), a status register indicating whether a
// packet is queued, and explicit processor loads/stores to move data — there
// is no DMA. By default sends always succeed (the network is
// contention-free and lossless, as in the paper) and delivery takes the
// constant network latency; attaching a faults.Plan makes the network drop,
// duplicate, delay, or corrupt packets deterministically, the substrate for
// the degradation experiments the paper's machines cannot express.
//
// Every operation that can suspend exists once, as a step form (StepStatus,
// StepRecv, StepSend, StepWaitPacketUntil) that returns "not done" instead
// of suspending; the blocking calls are coroutine drivers,
// `for !ni.StepFoo(...) { p.Yield() }`, over the same bodies (Send and
// TryRecv: an Interact in front of the shared body).
package ni

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrNoPacket is returned by TryRecv when no packet has arrived. On the
// lossless machine receiving without a prior status check is a programmer
// error (Recv panics, as real hardware would wedge); on a faulty network the
// typed error lets the transport treat it as a normal race.
var ErrNoPacket = errors.New("ni: no packet available")

// MaxDataWords is the most payload words one packet carries: the 16-byte
// payload holds at most four 4-byte elements.
const MaxDataWords = 4

// Packet is one 20-byte network packet: a tag/handler word plus four payload
// words. DataBytes records how much of the payload is application data (the
// rest is counted as control, as in the paper's bytes-transmitted split).
type Packet struct {
	Src, Dst int
	Tag      int
	Args     [4]uint64

	// Words carries the payload's application words inline for delivery to
	// the receiver's handler (at most PacketPayload bytes' worth; NWords are
	// valid). Inline rather than a slice so a Packet is a pure value: it
	// rides in its delivery event from send to receive with no heap payload
	// buffer and no aliasing of sender memory. Use SetPayload/Payload. On the
	// wire the packet is still 20 bytes.
	Words  [MaxDataWords]uint64
	NWords int

	// DataBytes is the application-data portion of the payload (0..16).
	DataBytes int

	// Arrive is the packet's arrival time at the destination NI.
	Arrive sim.Time

	// Seq is the reliable transport's sequence number; zero marks an
	// unsequenced (raw) packet. On the wire it rides in the tag word's
	// spare bits — the packet is still 20 bytes.
	Seq uint64

	// Corrupt marks a packet whose payload the network flipped a bit of.
	// The reliable transport detects it (modeled checksum) and discards.
	Corrupt bool
}

// SetPayload copies up to MaxDataWords payload words into the packet.
func (pkt *Packet) SetPayload(words []uint64) {
	if len(words) > MaxDataWords {
		panic(fmt.Sprintf("ni: payload of %d words exceeds %d", len(words), MaxDataWords))
	}
	pkt.NWords = copy(pkt.Words[:], words)
}

// Payload returns the packet's valid payload words.
func (pkt *Packet) Payload() []uint64 { return pkt.Words[:pkt.NWords] }

// Network is the interconnect: constant latency, no contention, infinite
// bandwidth (the paper's assumption; Section 4 notes LAPSE models contention
// but this study deliberately does not).
type Network struct {
	Eng *sim.Engine
	Cfg *cost.Config

	// Faults, when non-nil, is consulted on every injection to decide the
	// packet's fate. Nil is the paper's perfect network, bit-identical to
	// the seed behavior.
	Faults *faults.Plan

	nis []*NI

	// Packet-conservation counters. On a perfect network
	// Injected == Delivered; with faults the invariant generalizes to
	// Injected + Duplicated == Delivered + Dropped (every copy the network
	// created or destroyed is accounted). Corrupted counts packets
	// delivered with a flipped bit (they are also Delivered).
	Injected, Delivered, Dropped, Duplicated, Corrupted int64

	// free is the delivery pool, a stack threaded through delivery.next:
	// deliver pops, qpop pushes back, and an empty pool is refilled with one
	// slab of delSlab events.
	free *delivery
}

// NewNetwork creates the interconnect.
func NewNetwork(eng *sim.Engine, cfg *cost.Config) *Network {
	return &Network{Eng: eng, Cfg: cfg}
}

// Attach creates the network interface for processor p. Interfaces must be
// attached in processor-ID order.
func (n *Network) Attach(p *sim.Proc) *NI {
	if p.ID != len(n.nis) {
		panic(fmt.Sprintf("ni: attach out of order: proc %d, have %d", p.ID, len(n.nis)))
	}
	ni := &NI{Node: p.ID, P: p, Cfg: n.Cfg, net: n}
	n.nis = append(n.nis, ni)
	return ni
}

// NI is one node's network interface.
type NI struct {
	Node int
	P    *sim.Proc
	Cfg  *cost.Config

	net    *Network
	waiter bool // the processor is blocked awaiting a delivery

	// The incoming FIFO: arrived deliveries linked through next, oldest at
	// head. Deliveries happen in event-time order, so this is arrival order.
	head, tail *delivery
	n          int
}

func (ni *NI) qlen() int { return ni.n }

func (ni *NI) qhead() *Packet { return &ni.head.pkt }

// qpop copies the head packet into dst, the receive side's one 128-byte
// copy, and returns its delivery event to the pool. The event's fields are
// left in place: deliver overwrites all of them on reuse, and Packet is
// pointer-free, so clearing it would only duffzero 128 bytes per receive.
func (ni *NI) qpop(dst *Packet) {
	d := ni.head
	*dst = d.pkt
	ni.head = d.next
	if ni.head == nil {
		ni.tail = nil
	}
	ni.n--
	d.next = ni.net.free
	ni.net.free = d
}

// Pending returns the number of queued incoming packets (for tests).
func (ni *NI) Pending() int { return ni.qlen() }

// Faulty reports whether a fault plan is attached to the network.
func (ni *NI) Faulty() bool { return ni.net.Faults != nil }

// StepStatus reads the NI status word (5 cycles, charged to network access)
// and reports whether an incoming packet is available at the current clock;
// avail is valid only when done. A false done means nothing was charged;
// re-invoke when redispatched.
func (ni *NI) StepStatus() (avail, done bool) {
	p := ni.P
	if !p.StepInteract() {
		return false, false
	}
	p.ChargeStall(stats.NetAccess, ni.Cfg.NIStatusCycles)
	return ni.qlen() > 0 && ni.qhead().Arrive <= p.Clock(), true
}

// StepRecv pops the head packet into dst, the caller's resumable frame, on
// the path where StepStatus already said a packet is available (a poll never
// loads an empty FIFO). False means the quantum must catch up first.
func (ni *NI) StepRecv(dst *Packet) bool {
	p := ni.P
	if !p.StepInteract() {
		return false
	}
	if ni.qlen() == 0 || ni.qhead().Arrive > p.Clock() {
		panic("ni: step recv with no packet available")
	}
	p.ChargeStall(stats.NetAccess, ni.Cfg.NIRecvCycles)
	ni.qpop(dst)
	return true
}

// never is the deadline of an unbounded wait.
const never = sim.Time(math.MaxInt64)

// StepWaitPacket is the non-suspending WaitPacket: StepWaitPacketUntil with
// no deadline.
func (ni *NI) StepWaitPacket(cat stats.Category) bool {
	return ni.StepWaitPacketUntil(cat, never)
}

// StepWaitPacketUntil is the one implementation of the packet waits. True
// means a packet is available and the clock has advanced to its arrival, or
// the clock has reached deadline, whichever is first (waiting charged to
// cat). False means give up the processor and re-invoke with the same
// deadline (the caller latches it in its frame): either the entry Interact
// would yield, or the queue is empty and the waiter is parked until the next
// delivery — a wake is then pending on reentry. A bounded wait also
// schedules a wake at the deadline each time it parks; spurious wakes are
// harmless (the queue and clock are re-checked). A deadline of
// math.MaxInt64 is no bound at all.
func (ni *NI) StepWaitPacketUntil(cat stats.Category, deadline sim.Time) bool {
	p := ni.P
	if p.WakePending() {
		p.WakePayload()
	} else if !p.StepInteract() {
		return false
	}
	if ni.qlen() > 0 {
		a := ni.qhead().Arrive
		if a > deadline {
			a = deadline
		}
		p.WaitUntil(a, cat)
		return true
	}
	if p.Clock() >= deadline {
		return true
	}
	ni.waiter = true
	if deadline != never {
		p.Schedule(deadline, func() {
			if ni.waiter {
				ni.waiter = false
				ni.P.Wake(deadline)
			}
		})
	}
	p.StepBlock(cat, "awaiting packet")
	return false
}

// Send injects a packet: write tag+destination (5 cycles) then store five
// words (15 cycles). pkt.DataBytes of the 16-byte payload are counted as
// application data, the rest (plus the 4-byte tag word) as control. Src and
// Arrive are filled in by the interface.
func (ni *NI) Send(pkt *Packet) {
	ni.P.Interact()
	ni.sendBody(pkt)
}

// StepSend is the non-suspending Send: false means the quantum must catch
// up first (nothing injected, nothing charged); re-invoke with the same
// packet when redispatched.
func (ni *NI) StepSend(pkt *Packet) bool {
	if !ni.P.StepInteract() {
		return false
	}
	ni.sendBody(pkt)
	return true
}

// sendBody is everything Send does after its Interact: validation, the
// injection charges, and staging the delivery. pkt is the caller's private
// copy, passed by pointer so the 128-byte struct moves once per hop, not
// once per call frame.
func (ni *NI) sendBody(pkt *Packet) {
	if pkt.DataBytes < 0 || pkt.DataBytes > ni.Cfg.PacketPayload {
		panic(fmt.Sprintf("ni: dataBytes %d out of range", pkt.DataBytes))
	}
	dst := pkt.Dst
	if dst < 0 || dst >= len(ni.net.nis) {
		panic(fmt.Sprintf("ni: send to invalid node %d", dst))
	}
	p := ni.P
	p.ChargeStall(stats.NetAccess, ni.Cfg.NIWriteTagDest+ni.Cfg.NISendCycles)
	p.Acct.Add(stats.CntMessages, 1)
	p.Acct.Add(stats.CntBytesData, int64(pkt.DataBytes))
	p.Acct.Add(stats.CntBytesControl, int64(ni.Cfg.PacketBytes-pkt.DataBytes))

	pkt.Src = ni.Node
	pkt.Arrive = p.Clock() + ni.Cfg.NetLatency
	ni.net.Injected++
	dstNI := ni.net.nis[dst]

	if plan := ni.net.Faults; plan != nil {
		d := plan.Decide(p.Clock(), ni.Node, dst)
		if d.Drop {
			ni.net.Dropped++
			p.Acct.Add(stats.CntDropped, 1)
			return
		}
		if d.Corrupt {
			ni.net.Corrupted++
			pkt.Corrupt = true
			corrupt(pkt, d.CorruptBit)
		}
		pkt.Arrive += d.Delay
		if d.Dup {
			ni.net.Duplicated++
			dup := *pkt
			dup.Arrive = p.Clock() + ni.Cfg.NetLatency + d.DupDelay
			ni.deliver(dstNI, &dup)
		}
	}
	ni.deliver(dstNI, pkt)
}

// ConservationError reports a network that lost or invented packets: at
// the end of a completed run, the packets injected and duplicated differ
// from those delivered and dropped.
type ConservationError struct {
	Injected, Duplicated, Delivered, Dropped int64
}

func (e *ConservationError) Error() string {
	return fmt.Sprintf("ni: packets not conserved: injected %d + duplicated %d != delivered %d + dropped %d",
		e.Injected, e.Duplicated, e.Delivered, e.Dropped)
}

// CheckConservation holds a completed run's network to its conservation
// counters: Injected + Duplicated == Delivered + Dropped. No packet is in
// flight then, as Engine.Run drains the trailing events of a completed run.
func (n *Network) CheckConservation() error {
	if n.Injected+n.Duplicated != n.Delivered+n.Dropped {
		return &ConservationError{n.Injected, n.Duplicated, n.Delivered, n.Dropped}
	}
	return nil
}

// delivery is a pooled, closure-free packet-arrival event (sim.Action).
// From send to receive the packet lives only here: RunEvent links the event
// itself into the destination's FIFO and qpop returns it to the pool.
type delivery struct {
	dst  *NI
	next *delivery // the FIFO's or the pool's next event
	pkt  Packet
}

// delSlab is how many deliveries one pool refill allocates, as one slab.
const delSlab = 256

// RunEvent links the packet's event at the tail of the destination queue and
// wakes a blocked receiver. Engine context.
func (d *delivery) RunEvent(at sim.Time) {
	dst := d.dst
	if dst.tail == nil {
		dst.head = d
	} else {
		dst.tail.next = d
	}
	dst.tail = d
	dst.n++
	dst.net.Delivered++
	if dst.waiter {
		dst.waiter = false
		dst.P.Wake(at)
	}
}

// deliver stages pkt's arrival at dst on behalf of the sending processor;
// the delivery itself runs in a later event phase, the only context allowed
// to touch the destination's queue and wake its processor.
func (ni *NI) deliver(dst *NI, pkt *Packet) {
	net := ni.net
	if net.free == nil {
		slab := make([]delivery, delSlab)
		for i := range slab[:len(slab)-1] {
			slab[i].next = &slab[i+1]
		}
		net.free = &slab[0]
	}
	d := net.free
	net.free = d.next
	d.dst, d.next, d.pkt = dst, nil, *pkt
	ni.P.ScheduleAction(pkt.Arrive, d)
}

// corrupt flips one bit of the 20-byte wire image: bits 0..31 hit the tag
// word, the rest the payload words. The packet is a value copy, so the
// sender's buffers are untouched; the inline payload words are not mutated —
// a flipped payload bit is represented by the Corrupt flag alone, which is
// what the transport's checksum sees.
func corrupt(pkt *Packet, bit int) {
	if bit < 32 {
		pkt.Tag ^= 1 << (bit % 31)
		return
	}
	w := (bit - 32) / 32
	if w < len(pkt.Args) {
		pkt.Args[w] ^= 1 << ((bit - 32) % 32)
	}
}

// Recv pops the head packet (15 cycles of loads). The caller must have
// observed a status read report a packet; receiving from an empty or not-yet-arrived queue
// panics, as it would wedge real hardware.
func (ni *NI) Recv() Packet {
	pkt, err := ni.TryRecv()
	if err != nil {
		panic(fmt.Sprintf("ni: node %d recv with no packet available", ni.Node))
	}
	return pkt
}

// TryRecv pops the head packet if one has arrived, or returns ErrNoPacket.
// The receive cost is only charged when a packet is actually popped.
func (ni *NI) TryRecv() (Packet, error) {
	p := ni.P
	p.Interact()
	if ni.qlen() == 0 || ni.qhead().Arrive > p.Clock() {
		return Packet{}, fmt.Errorf("ni: node %d: %w", ni.Node, ErrNoPacket)
	}
	p.ChargeStall(stats.NetAccess, ni.Cfg.NIRecvCycles)
	var pkt Packet
	ni.qpop(&pkt)
	return pkt, nil
}

// WaitPacket stalls (charging cat) until a packet is available. An empty
// queue blocks the processor until the next delivery — the stall spans
// exactly the idle window, as a polling loop would.
func (ni *NI) WaitPacket(cat stats.Category) {
	for !ni.StepWaitPacket(cat) {
		ni.P.Yield()
	}
}
