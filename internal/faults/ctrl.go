package faults

// Control-message fault injection for the shared-memory machine's coherence
// protocol: the symmetric counterpart of the packet-level Plan used by the
// message-passing network. Coherence traffic does not traverse the simulated
// packet network, so its faults are modeled at the protocol-message level —
// the home directory can NACK an arriving request, and any control message
// (reply, invalidation, recall, acknowledgement) can be delayed or reordered
// past later messages. As with Plan, all randomness comes from a seeded
// sim.RNG drawn in simulation order, so identical seeds replay identical
// fault sequences bit-for-bit.

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sim"
)

// CtrlRates holds the per-message fault probabilities, applied to every
// protocol link for the whole run. All are in [0, 1). Faults are decided
// independently in a fixed order (NACK first: a NACKed request consumes no
// further draws).
type CtrlRates struct {
	NACK    float64 // home directory refuses an arriving request
	Reorder float64 // defer a message past at least one latency window
	Delay   float64 // add jitter to the delivery latency

	// MaxDelay bounds the extra jitter, drawn uniformly from [1, MaxDelay]
	// cycles. Zero means no jitter even if Delay > 0. A reordered message
	// is deferred by one full window plus the same jitter draw.
	MaxDelay int64
}

// Zero reports whether the rates can never fire.
func (r CtrlRates) Zero() bool {
	return r.NACK == 0 && ((r.Reorder == 0 && r.Delay == 0) || r.MaxDelay == 0)
}

// CtrlDecision is the fate of one coherence-protocol message.
type CtrlDecision struct {
	// NACK directs the home to refuse the request (requests only; the
	// protocol ignores it for replies, invalidations, and acks).
	NACK bool
	// Delay is extra delivery latency in cycles (0 = on time). Reordering
	// appears here too: a reordered message carries at least one full
	// window of extra delay, so later messages on the link overtake it.
	Delay sim.Time
}

// CtrlPlan is one rate set plus its RNG. It is consulted once per protocol
// message, in simulation order.
type CtrlPlan struct {
	rng    *sim.RNG
	rates  CtrlRates
	window int64 // the reorder deferral unit (the network latency)

	// Decisions, NACKs, Delayed tally consultations and fired faults, for
	// tests and reports.
	Decisions, NACKs, Delayed int64
}

// CtrlFromConfig builds a plan from the flat cost.SMFaultsConfig spec
// (tuning already defaulted via WithDefaults); window is the network
// latency.
func CtrlFromConfig(f cost.SMFaultsConfig, window int64) *CtrlPlan {
	if window <= 0 {
		window = 100
	}
	return &CtrlPlan{rng: sim.NewRNG(f.Seed), window: window, rates: CtrlRates{
		NACK: f.NACKRate, Reorder: f.ReorderRate, Delay: f.DelayRate,
		MaxDelay: f.MaxDelay,
	}}
}

// DecideRequest draws the fate of a coherence request arriving at the home
// directory: NACK, extra delay, or clean service. Draw order is fixed so
// identical seeds replay identical sequences.
func (p *CtrlPlan) DecideRequest() CtrlDecision {
	p.Decisions++
	r := p.rates
	if r.Zero() {
		return CtrlDecision{}
	}
	if r.NACK > 0 && p.rng.Float64() < r.NACK {
		p.NACKs++
		return CtrlDecision{NACK: true} // a refused request consumes no further draws
	}
	return p.delayDraws()
}

// DecideMessage draws the fate of a non-request protocol message (reply,
// invalidation, recall, acknowledgement): extra delay or on-time delivery.
func (p *CtrlPlan) DecideMessage() CtrlDecision {
	p.Decisions++
	if p.rates.Zero() {
		return CtrlDecision{}
	}
	return p.delayDraws()
}

func (p *CtrlPlan) delayDraws() CtrlDecision {
	r := p.rates
	var d CtrlDecision
	if r.MaxDelay <= 0 {
		return d
	}
	if r.Reorder > 0 && p.rng.Float64() < r.Reorder {
		d.Delay += sim.Time(p.window) + sim.Time(1+p.rng.Intn(int(r.MaxDelay)))
	}
	if r.Delay > 0 && p.rng.Float64() < r.Delay {
		d.Delay += sim.Time(1 + p.rng.Intn(int(r.MaxDelay)))
	}
	if d.Delay > 0 {
		p.Delayed++
	}
	return d
}

// RetryStarvationError is the structured report produced when a requester
// exhausts its NACK retry budget: the starved node, the home that kept
// refusing, the block, and the backoff history, in place of a silent
// livelock — the shared-memory analogue of StarvationError.
type RetryStarvationError struct {
	Node, Home int
	Block      uint64
	Kind       string // the refused request kind (GETS/GETX/UPGRADE)
	Retries    int
	FirstSent  sim.Time // when the request was first issued
	Now        sim.Time
}

func (e *RetryStarvationError) Error() string {
	return fmt.Sprintf(
		"faults: node %d starved: home %d NACKed %s of block %#x %d times (first sent @%d, gave up @%d)",
		e.Node, e.Home, e.Kind, e.Block, e.Retries, e.FirstSent, e.Now)
}
