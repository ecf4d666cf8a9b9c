package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/stats"
)

// Combiner models an in-network hardware combining tree, the ablation the
// exascale-synchronization literature motivates (NYU Ultracomputer
// fetch-and-combine; the CM-5's control network computed reductions in
// hardware but the paper's machines deliberately omit it): every
// participant deposits a (value, index) contribution at its network port,
// the network combines contributions on the way up, and a fixed latency
// after the last arrival the combined result is delivered to every
// participant. Against the software reduction trees (cmmd.Comm.Reduce,
// parmacs.Reduction) it isolates how much of their time is the software
// structure rather than the data dependence itself.
//
// Determinism mirrors Barrier: arrivals may come from concurrently
// executing processors, so bookkeeping is mutex-protected; the release
// time is max(arrival clocks) + latency (commutative); contributions are
// combined in processor-ID order whatever the host arrival order; the
// release is staged through a combiner-owned Stager; and waiters are woken
// in processor-ID order. Floating-point combining is therefore
// bit-reproducible — the fold order is fixed by processor ID, never by
// host scheduling.
type Combiner struct {
	eng     *Engine
	n       int
	latency Time
	combine CombineFunc
	stager  *Stager

	mu      sync.Mutex
	arrived []combArrival
	maxArr  Time
	op      uint8
	epoch   int64 // completed combining episodes, for tests and encoding

	// freeRel recycles release events (and their contribution buffers) so a
	// steady state of combining episodes allocates nothing; same discipline
	// as Barrier.freeRel.
	freeRel []*combRelease
}

// CombineFunc folds two (value, index) contributions under an operator code.
// The code's meaning belongs to the owning library (cmmd.ReduceOp,
// parmacs.Op); the combiner only guarantees a deterministic fold order.
type CombineFunc func(op uint8, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64)

type combArrival struct {
	p   *Proc
	val float64
	idx int64
}

// combRelease is the staged release event for one combining episode: it
// folds the contributions in processor-ID order, wakes every participant
// with the result, and returns itself to the freelist.
type combRelease struct {
	c       *Combiner
	at      Time
	op      uint8
	arrived []combArrival
}

// RunEvent implements Action.
func (r *combRelease) RunEvent(Time) {
	c := r.c
	val, idx := r.arrived[0].val, r.arrived[0].idx
	for _, a := range r.arrived[1:] {
		val, idx = c.combine(r.op, val, idx, a.val, a.idx)
	}
	c.epoch++
	bits := int64(math.Float64bits(val))
	for _, a := range r.arrived {
		a.p.WakeVals(r.at, bits, idx)
	}
	r.arrived = r.arrived[:0]
	c.mu.Lock()
	c.freeRel = append(c.freeRel, r)
	c.mu.Unlock()
}

// NewCombiner creates a hardware combining tree for n participants with the
// given release latency and combining function.
func NewCombiner(eng *Engine, n int, latency Time, combine CombineFunc) *Combiner {
	if n <= 0 {
		panic("sim: combiner needs at least one participant")
	}
	if combine == nil {
		panic("sim: combiner needs a combine function")
	}
	return &Combiner{eng: eng, n: n, latency: latency, combine: combine,
		stager: eng.NewStager()}
}

// Epochs returns how many combining episodes have completed.
func (c *Combiner) Epochs() int64 { return c.epoch }

// StepWait deposits (val, idx) under operator op and stalls until latency
// cycles after the last participant's deposit, returning the combined
// result (delivered to every participant — root-only semantics are the
// caller's to impose). The stall is charged to cat. Every participant of an
// episode must pass the same op; re-entering before the episode completes
// panics. The mirror of Barrier.StepWait: it returns done=false after
// recording the deposit and blocking, and the combined result on the
// reentry that consumes the release wake.
func (c *Combiner) StepWait(p *Proc, cat stats.Category, op uint8, val float64, idx int64) (float64, int64, bool) {
	if p.WakePending() {
		a, b := p.WakePayloadVals()
		return math.Float64frombits(uint64(a)), b, true
	}
	if !p.StepInteract() {
		return 0, 0, false
	}
	c.mu.Lock()
	for _, a := range c.arrived {
		if a.p == p {
			c.mu.Unlock()
			panic(fmt.Sprintf("sim: proc %d re-entered combiner", p.ID))
		}
	}
	if len(c.arrived) == 0 {
		c.op = op
	} else if op != c.op {
		c.mu.Unlock()
		panic(fmt.Sprintf("sim: proc %d joined combining episode with op %d, episode uses op %d",
			p.ID, op, c.op))
	}
	if p.clock > c.maxArr {
		c.maxArr = p.clock
	}
	c.arrived = append(c.arrived, combArrival{p: p, val: val, idx: idx})
	if len(c.arrived) == c.n {
		c.stageRelease()
	}
	c.mu.Unlock()
	p.StepBlock(cat, "combine")
	return 0, 0, false
}

// stageRelease, called with mu held by the episode's last arrival, sorts
// the contributions into processor-ID order, stages the release event, and
// resets the arrival state for the next episode.
func (c *Combiner) stageRelease() {
	release := c.maxArr + c.latency
	var r *combRelease
	if n := len(c.freeRel); n > 0 {
		r = c.freeRel[n-1]
		c.freeRel = c.freeRel[:n-1]
	} else {
		r = &combRelease{c: c}
	}
	r.at = release
	r.op = c.op
	r.arrived = append(r.arrived, c.arrived...)
	// Insertion sort by processor ID (episodes are small; a closure-based
	// sort would allocate per episode).
	for i := 1; i < len(r.arrived); i++ {
		a := r.arrived[i]
		j := i - 1
		for j >= 0 && r.arrived[j].p.ID > a.p.ID {
			r.arrived[j+1] = r.arrived[j]
			j--
		}
		r.arrived[j+1] = a
	}
	c.arrived = c.arrived[:0]
	c.maxArr = 0
	c.stager.ScheduleAction(release, r)
}
