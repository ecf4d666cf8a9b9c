package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Barrier models the control network both machines provide (as on the
// CM-5). Its plain episode is the hardware barrier: all participants leave
// a fixed latency after the last arrival (Table 1: 100 cycles from last
// arrival). Its combining episode is the in-network reduction of the
// hardware-combining ablation (NYU Ultracomputer fetch-and-combine; the
// CM-5's control network computed reductions in hardware, but the paper's
// machines deliberately omit it): the same episode, except that every
// arrival deposits a (value, index) contribution and the release delivers
// the combined result to every participant. Against the software reduction
// trees (cmmd.Comm.Reduce, parmacs.Reduction) it isolates how much of their
// time is the software structure rather than the data dependence itself.
//
// Within a quantum the conservative window leaves arrival order open, so
// nothing order-dependent follows it: the release time is max(arrival
// clocks) + latency (commutative), the release itself is an event staged
// through a barrier-owned Stager (fixed sequence-number position however
// arrives last), contributions are folded and waiters woken in
// processor-ID order. Floating-point combining is therefore
// bit-reproducible.
type Barrier struct {
	eng     *Engine
	n       int
	latency Time
	stager  *Stager

	waiting   []*Proc
	polling   int // participants spin-waiting instead of blocking
	maxArr    Time
	combining bool     // the current episode's arrivals carry contributions
	op        ReduceOp // the current combining episode's operator

	// contrib holds each combining arrival's deposit, indexed by processor
	// ID. A participant writes only its own slot, and only while no release
	// that reads it is pending: it stays parked until that release fires.
	contrib []contribution

	// epoch and release are written only by the release event (engine
	// context) and read by processors.
	epoch   int64 // completed episodes, for tests and sanity checks
	release Time  // release time of the most recently completed episode

	// freeRel recycles release events (and their waiter buffers) so a
	// steady state of episodes allocates nothing. Pops happen in
	// stageRelease; pushes happen in the release event.
	freeRel []*barrierRelease
}

type contribution struct {
	val float64
	idx int64
}

// barrierRelease is the staged release event for one episode: it folds a
// combining episode's contributions in processor-ID order, wakes the
// episode's waiters in that order (with the result, if combining) and
// publishes the new epoch, then returns itself to the barrier's freelist.
type barrierRelease struct {
	b         *Barrier
	at        Time
	combining bool
	op        ReduceOp
	waiters   []*Proc
}

// RunEvent implements Action.
func (r *barrierRelease) RunEvent(Time) {
	b := r.b
	b.release = r.at
	b.epoch++
	if r.combining {
		acc := b.contrib[r.waiters[0].ID]
		for _, q := range r.waiters[1:] {
			c := b.contrib[q.ID]
			acc.val, acc.idx = r.op.Combine(acc.val, acc.idx, c.val, c.idx)
		}
		bits := int64(math.Float64bits(acc.val))
		for _, q := range r.waiters {
			q.WakeVals(r.at, bits, acc.idx)
		}
	} else {
		for _, q := range r.waiters {
			q.Wake(r.at)
		}
	}
	r.waiters = r.waiters[:0]
	b.freeRel = append(b.freeRel, r)
}

// NewBarrier creates a barrier for n participants with the given release
// latency.
func NewBarrier(eng *Engine, n int, latency Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one participant")
	}
	return &Barrier{eng: eng, n: n, latency: latency, stager: eng.NewStager()}
}

// Epochs returns how many episodes, plain or combining, have completed.
func (b *Barrier) Epochs() int64 { return b.epoch }

// Wait enters the barrier. The caller stalls until latency cycles after the
// last participant arrives; the stall is charged to cat. Reentering before
// all participants have arrived for the current episode is a program error
// and panics. Wait is the coroutine driver over StepWait.
func (b *Barrier) Wait(p *Proc, cat stats.Category) {
	for !b.StepWait(p, cat) {
		p.Yield()
	}
}

// StepWait is the one implementation of a barrier arrival: it returns false
// after recording the arrival and blocking (a step returns StepYield, Wait
// yields), and true on the reentry that consumes the release wake. Coroutine
// and step participants therefore share the arrival bookkeeping, release
// together, and are woken by the release event in processor-ID order.
func (b *Barrier) StepWait(p *Proc, cat stats.Category) bool {
	if p.WakePending() {
		p.WakePayload()
		return true
	}
	if !p.StepInteract() {
		return false
	}
	b.arrive(p, arriveWait, 0, contribution{})
	p.StepBlock(cat, "barrier")
	return false
}

// StepCombine is a combining arrival: it deposits (val, idx) under op and
// stalls until latency cycles after the last participant's deposit,
// returning the combined result (delivered to every participant — root-only
// semantics are the caller's to impose). The stall is charged to cat. Every
// participant of an episode must combine, under the same op; a plain wait
// or a different op in the episode panics. Like StepWait, it returns
// done=false after recording the deposit and blocking, and the result on
// the reentry that consumes the release wake.
func (b *Barrier) StepCombine(p *Proc, cat stats.Category, op ReduceOp, val float64, idx int64) (float64, int64, bool) {
	if p.WakePending() {
		v, i := p.WakePayloadVals()
		return math.Float64frombits(uint64(v)), i, true
	}
	if !p.StepInteract() {
		return 0, 0, false
	}
	b.arrive(p, arriveCombine, op, contribution{val, idx})
	p.StepBlock(cat, "combine")
	return 0, 0, false
}

// ServiceWait is the resumable state of one StepWaitService.
type ServiceWait struct {
	phase uint8
	epoch int64 // the episode this participant arrived in
}

// StepWaitService enters the barrier like StepWait, but keeps the processor
// runnable while waiting, invoking service once per quantum. Reliable-
// transport runs use it so acknowledgements and retransmissions progress
// while a node sits in a barrier — on a lossy network a blocked barrier wait
// can deadlock the whole machine (a peer may be waiting for this node to
// re-ack data whose acknowledgement was lost). service is itself
// resumable: false means it suspended mid-call and must be re-invoked
// before anything else. After a completed service the rest of the quantum
// is charged to cat — nothing observable can change until the next one —
// and the wait returns false; the reentry that finds the episode released
// returns true with the clock at the release time.
func (b *Barrier) StepWaitService(p *Proc, sw *ServiceWait, cat stats.Category, service func() bool) bool {
	for {
		switch sw.phase {
		case 0: // arrive
			if !p.StepInteract() {
				return false
			}
			sw.epoch = b.epoch
			b.arrive(p, arrivePoll, 0, contribution{})
			sw.phase = 1
		case 1: // released?
			if b.epoch != sw.epoch {
				p.WaitUntil(b.release, cat)
				sw.phase = 0
				return true
			}
			sw.phase = 2
		case 2: // service the network, then spin out the quantum
			if service != nil && !service() {
				return false
			}
			if p.clock < p.eng.qEnd {
				p.ChargeStall(cat, p.eng.qEnd-p.clock)
			}
			sw.phase = 1
			return false
		}
	}
}

// arrival is how a participant enters an episode.
type arrival uint8

const (
	arriveWait    arrival = iota // StepWait: blocks until the release
	arrivePoll                   // StepWaitService: stays runnable, watches the epoch
	arriveCombine                // StepCombine: blocks and deposits a contribution
)

// arrive is the one arrival path. It checks the arrival against the
// current episode, records it — a polling arrival is only counted, a
// blocking one joins waiting, a combining one also deposits c — and stages
// the release if it completes the episode. The first arrival fixes the
// episode's kind and operator. The re-entry check is O(1): a participant
// already in an episode is blocked until its release.
func (b *Barrier) arrive(p *Proc, kind arrival, op ReduceOp, c contribution) {
	combining := kind == arriveCombine
	switch {
	case p.blocked:
		panic(fmt.Sprintf("sim: proc %d re-entered barrier (still blocked on %s)", p.ID, p.blockReason))
	case len(b.waiting)+b.polling == 0:
		b.combining, b.op = combining, op
	case combining != b.combining:
		panic(fmt.Sprintf("sim: proc %d joined a %s episode of the barrier with a %s arrival",
			p.ID, arrivalKind(b.combining), arrivalKind(combining)))
	case combining && op != b.op:
		panic(fmt.Sprintf("sim: proc %d joined combining episode with op %d, episode uses op %d",
			p.ID, op, b.op))
	}
	if p.clock > b.maxArr {
		b.maxArr = p.clock
	}
	if kind == arrivePoll {
		b.polling++
	} else {
		b.waiting = append(b.waiting, p)
	}
	if combining {
		if p.ID >= len(b.contrib) {
			b.contrib = append(b.contrib, make([]contribution, p.ID+1-len(b.contrib))...)
		}
		b.contrib[p.ID] = c
	}
	if len(b.waiting)+b.polling == b.n {
		b.stageRelease()
	}
}

func arrivalKind(combining bool) string {
	if combining {
		return "combine"
	}
	return "wait"
}

// stageRelease, called by the episode's last arrival, stages the release
// event and resets the arrival state for the next episode. The event — not
// the arriving processor — folds the contributions, wakes the waiters and
// publishes the new epoch, so completion behaves identically whichever
// processor's arrival turned out to be last.
//
// Plain and combining episodes share this one Stager. That cannot reorder
// sequence numbers against separate Stagers per kind: an episode stages
// only at its last arrival, every participant is parked or polling until
// that episode's release event, and the release fires in a later quantum's
// event phase, so two episodes never both hold staged events in the same
// quantum.
func (b *Barrier) stageRelease() {
	release := b.maxArr + b.latency
	var r *barrierRelease
	if n := len(b.freeRel); n > 0 {
		r = b.freeRel[n-1]
		b.freeRel = b.freeRel[:n-1]
	} else {
		r = &barrierRelease{b: b}
	}
	r.at = release
	r.combining, r.op = b.combining, b.op
	r.waiters = append(r.waiters, b.waiting...)
	insertionSortByID(r.waiters)
	b.waiting = b.waiting[:0]
	b.polling = 0
	b.maxArr = 0
	b.combining, b.op = false, 0
	b.stager.ScheduleAction(release, r)
}

// insertionSortByID sorts a release's waiters by processor ID. They arrive
// in dispatch order, which is ID order within each quantum, so the list is
// nearly sorted already and insertion sort suits it.
func insertionSortByID(ps []*Proc) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].ID > p.ID {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// ReduceOp is a reduction operator over (value, index) contributions, so
// that pivot selection (max |value| with its owning row) needs a single
// reduction. It is the one operator set of both machines' software trees
// and of the combining barrier. The values are fixed: cmmd carries the
// operator in a collective packet's argument.
type ReduceOp int

const (
	// OpSum adds values; the index is 0.
	OpSum ReduceOp = 0
	// OpMaxAbs keeps the value of larger magnitude and its index (the
	// earlier contribution on a tie).
	OpMaxAbs ReduceOp = 3
)

// ErrUnknownOp reports a reduction called with an undefined operator.
var ErrUnknownOp = errors.New("sim: unknown reduction op")

// Check fails p's run with ErrUnknownOp unless op is defined. Reductions
// call it once, at entry, so Combine never sees an undefined operator.
func (op ReduceOp) Check(p *Proc) {
	if op != OpSum && op != OpMaxAbs {
		p.Fail(fmt.Errorf("%w: op %d at node %d", ErrUnknownOp, int(op), p.ID))
	}
}

// Combine folds contribution (v2, i2) into (v1, i1).
func (op ReduceOp) Combine(v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
	switch op {
	case OpSum:
		return v1 + v2, 0
	case OpMaxAbs:
		if math.Abs(v2) > math.Abs(v1) {
			return v2, i2
		}
		return v1, i1
	}
	panic(fmt.Sprintf("sim: unknown reduction op %d", int(op)))
}
