// Package faults implements deterministic network fault injection for the
// simulated message-passing machine. The paper's CM-5 network is
// contention-free and lossless (Table 1); this package adds the measurement
// axis the paper could not express: how do the time breakdowns degrade when
// packets are dropped, duplicated, delayed, or corrupted?
//
// A Plan is a schedule of fault rates — per network link and per virtual-time
// epoch — consulted by ni.Network on every packet injection. All randomness
// comes from seeded sim.RNG streams, one per source node, each drawn in that
// node's injection order: a run with the same configuration and seed
// reproduces the identical fault sequence bit-for-bit (which the determinism
// tests rely on), and a node's draws never depend on how its sends
// interleave with other nodes' sends, because no stream is shared between
// processors.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Rates holds the per-packet fault probabilities of one rule. All are in
// [0, 1). Faults are decided independently in a fixed order (drop first:
// a dropped packet consumes no further draws).
type Rates struct {
	Drop    float64 // lose the packet in the network
	Dup     float64 // deliver the packet twice
	Corrupt float64 // flip one payload bit (detected by the transport)
	Delay   float64 // add jitter to the delivery latency

	// MaxDelay bounds the jitter, drawn uniformly from [1, MaxDelay]
	// cycles. Zero means no jitter even if Delay > 0.
	MaxDelay int64
}

// Zero reports whether the rule can never fire.
func (r Rates) Zero() bool {
	return r.Drop == 0 && r.Dup == 0 && r.Corrupt == 0 && (r.Delay == 0 || r.MaxDelay == 0)
}

// LinkRule applies Rates to packets from Src to Dst. A negative Src or Dst
// is a wildcard. Rules are matched first-to-last; the first match wins.
type LinkRule struct {
	Src, Dst int
	Rates
}

// Epoch is one segment of the fault schedule: from Start (inclusive) until
// the next epoch's Start, the given rules apply. An empty rule list means a
// perfect network for the epoch.
type Epoch struct {
	Start sim.Time
	Rules []LinkRule
}

// Decision is the fate of one injected packet.
type Decision struct {
	Drop    bool
	Dup     bool
	Corrupt bool
	// Delay is extra delivery latency in cycles (0 = on time). When Dup is
	// set, DupDelay jitters the second copy independently.
	Delay    sim.Time
	DupDelay sim.Time
	// CorruptBit is the payload bit (0..159 of the 20-byte packet) the
	// network flips, when Corrupt is set.
	CorruptBit int
}

// Plan is a compiled fault schedule plus its randomness. Each source node
// draws from its own seeded stream (created on first use), so a node's
// draws do not depend on how its sends interleave with other nodes' sends
// inside a quantum — an order the conservative window leaves open.
type Plan struct {
	seed   uint64
	epochs []Epoch

	streams map[int]*sim.RNG

	// Decisions tallies consultations, for tests and reports.
	Decisions int64
}

// NewPlan compiles a schedule. Epochs are sorted by start time; before the
// first epoch's start the network is perfect.
func NewPlan(seed uint64, epochs []Epoch) *Plan {
	es := append([]Epoch(nil), epochs...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Start < es[j].Start })
	return &Plan{seed: seed, epochs: es, streams: make(map[int]*sim.RNG)}
}

// stream returns src's private RNG, creating it deterministically from the
// plan seed on first use. Stream contents depend only on (seed, src), never
// on creation order.
func (p *Plan) stream(src int) *sim.RNG {
	r := p.streams[src]
	if r == nil {
		r = sim.NewRNG(p.seed + uint64(int64(src)+1)*0x9E3779B97F4A7C15)
		p.streams[src] = r
	}
	return r
}

// Uniform builds the common case: one rate set on every link for the whole
// run.
func Uniform(seed uint64, r Rates) *Plan {
	return NewPlan(seed, []Epoch{{Start: 0, Rules: []LinkRule{{Src: -1, Dst: -1, Rates: r}}}})
}

// FromConfig builds a plan from the flat cost.FaultsConfig spec (rates
// already defaulted via WithDefaults).
func FromConfig(f cost.FaultsConfig) *Plan {
	return Uniform(f.Seed, Rates{
		Drop: f.DropRate, Dup: f.DupRate, Corrupt: f.CorruptRate,
		Delay: f.DelayRate, MaxDelay: f.MaxDelay,
	})
}

// rates returns the active rule for a packet from src to dst at time now,
// or false if no rule matches.
func (p *Plan) rates(now sim.Time, src, dst int) (Rates, bool) {
	var ep *Epoch
	for i := range p.epochs {
		if p.epochs[i].Start <= now {
			ep = &p.epochs[i]
		} else {
			break
		}
	}
	if ep == nil {
		return Rates{}, false
	}
	for i := range ep.Rules {
		r := &ep.Rules[i]
		if (r.Src < 0 || r.Src == src) && (r.Dst < 0 || r.Dst == dst) {
			return r.Rates, true
		}
	}
	return Rates{}, false
}

// Decide draws the fate of one packet injected at time now from src to dst.
// Draw order within a source's stream is fixed, so identical seeds replay
// identical sequences regardless of how sends on different nodes interleave.
func (p *Plan) Decide(now sim.Time, src, dst int) Decision {
	p.Decisions++
	r, ok := p.rates(now, src, dst)
	if !ok || r.Zero() {
		return Decision{}
	}
	rng := p.stream(src)
	var d Decision
	if r.Drop > 0 && rng.Float64() < r.Drop {
		d.Drop = true
		return d // a lost packet consumes no further draws
	}
	if r.Dup > 0 && rng.Float64() < r.Dup {
		d.Dup = true
	}
	if r.Corrupt > 0 && rng.Float64() < r.Corrupt {
		d.Corrupt = true
		d.CorruptBit = rng.Intn(160)
	}
	if r.Delay > 0 && r.MaxDelay > 0 && rng.Float64() < r.Delay {
		d.Delay = sim.Time(1 + rng.Intn(int(r.MaxDelay)))
	}
	if d.Dup && r.Delay > 0 && r.MaxDelay > 0 && rng.Float64() < r.Delay {
		d.DupDelay = sim.Time(1 + rng.Intn(int(r.MaxDelay)))
	}
	return d
}

// StarvationError is the structured report produced when the reliable
// transport exhausts its retry budget: the starved node, the unresponsive
// peer, and the oldest unacknowledged sequence number, in place of a bare
// deadlock panic.
type StarvationError struct {
	Node, Peer    int
	OldestUnacked uint64
	Retries       int
	FirstSent     sim.Time // when the oldest unacked packet was first injected
	Now           sim.Time
}

func (e *StarvationError) Error() string {
	return fmt.Sprintf(
		"faults: node %d starved: peer %d never acked seq %d after %d retries (first sent @%d, gave up @%d)",
		e.Node, e.Peer, e.OldestUnacked, e.Retries, e.FirstSent, e.Now)
}
