package sim

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// Barrier models the hardware barrier both machines provide (as on the
// CM-5): all participants leave the barrier a fixed latency after the last
// arrival (Table 1: 100 cycles from last arrival).
//
// Arrivals may come from concurrently executing processors during a
// parallel processor phase, so the arrival bookkeeping is mutex-protected.
// Everything order-dependent is kept deterministic regardless of host
// arrival order: the release time is max(arrival clocks) + latency
// (commutative), the release itself is an event staged through a
// barrier-owned Stager (fixed sequence-number position however arrives
// last), and waiters are woken in processor-ID order.
type Barrier struct {
	eng     *Engine
	n       int
	latency Time
	stager  *Stager

	mu      sync.Mutex
	waiting []*Proc
	polling int // participants spin-waiting instead of blocking
	maxArr  Time

	// epoch and release are written only by the release event (engine
	// context) and read by processors; quantum-boundary ordering makes the
	// reads race-free without taking mu.
	epoch   int64 // completed barrier episodes, for tests and sanity checks
	release Time  // release time of the most recently completed episode

	// freeRel recycles release events (and their waiter buffers) so a
	// steady state of barrier episodes allocates nothing. Pops happen under
	// mu in stageRelease; pushes happen in the release event (engine
	// context), also under mu for visibility.
	freeRel []*barrierRelease
}

// barrierRelease is the staged release event for one barrier episode: it
// wakes the episode's waiters in processor-ID order and publishes the new
// epoch, then returns itself to the barrier's freelist.
type barrierRelease struct {
	b       *Barrier
	at      Time
	waiters []*Proc
}

// RunEvent implements Action.
func (r *barrierRelease) RunEvent(Time) {
	b := r.b
	b.release = r.at
	b.epoch++
	for _, q := range r.waiters {
		q.Wake(r.at)
	}
	r.waiters = r.waiters[:0]
	b.mu.Lock()
	b.freeRel = append(b.freeRel, r)
	b.mu.Unlock()
}

// NewBarrier creates a barrier for n participants with the given release
// latency.
func NewBarrier(eng *Engine, n int, latency Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one participant")
	}
	return &Barrier{eng: eng, n: n, latency: latency, stager: eng.NewStager()}
}

// Epochs returns how many times the barrier has completed.
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
	b.mu.Lock()
	for _, q := range b.waiting {
		if q == p {
			b.mu.Unlock()
			panic(fmt.Sprintf("sim: proc %d re-entered barrier", p.ID))
		}
	}
	if p.clock > b.maxArr {
		b.maxArr = p.clock
	}
	b.waiting = append(b.waiting, p)
	if len(b.waiting)+b.polling == b.n {
		b.stageRelease()
	}
	b.mu.Unlock()
	p.StepBlock(cat, "barrier")
	return false
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
			b.mu.Lock()
			if p.clock > b.maxArr {
				b.maxArr = p.clock
			}
			sw.epoch = b.epoch
			b.polling++
			if len(b.waiting)+b.polling == b.n {
				b.stageRelease()
			}
			b.mu.Unlock()
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

// stageRelease, called with mu held by the episode's last arrival, stages
// the release event and resets the arrival state for the next episode. The
// event — not the arriving processor — wakes the waiters and publishes the
// new epoch, so completion behaves identically whichever processor's
// arrival, in whichever host order, turned out to be last.
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
	r.waiters = append(r.waiters, b.waiting...)
	// Insertion sort by processor ID: episodes are small (≤ participant
	// count) and a closure-based sort would allocate per episode.
	for i := 1; i < len(r.waiters); i++ {
		q := r.waiters[i]
		j := i - 1
		for j >= 0 && r.waiters[j].ID > q.ID {
			r.waiters[j+1] = r.waiters[j]
			j--
		}
		r.waiters[j+1] = q
	}
	b.waiting = b.waiting[:0]
	b.polling = 0
	b.maxArr = 0
	b.stager.ScheduleAction(release, r)
}
