package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// cmpEvents is the oracle's order: (At, seq).
func cmpEvents(a, b *Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// queueOracle drives a bucketQueue and a sorted slice side by side: every
// minAt and popBelow must agree with the (At, seq)-sorted set of events
// pushed and not yet popped.
type queueOracle struct {
	t       *testing.T
	q       bucketQueue
	pending []*Event // sorted by (At, seq)
	seq     uint64
	popped  int
}

func (o *queueOracle) push(at Time) {
	o.seq++
	ev := &Event{At: at, seq: o.seq}
	i, _ := slices.BinarySearchFunc(o.pending, ev, cmpEvents)
	o.pending = slices.Insert(o.pending, i, ev)
	o.q.push(ev)
}

func (o *queueOracle) minAt() Time {
	o.t.Helper()
	want := Time(-1)
	if len(o.pending) > 0 {
		want = o.pending[0].At
	}
	if got := o.q.minAt(); got != want {
		o.t.Fatalf("after %d pops: minAt = %d, want %d", o.popped, got, want)
	}
	return want
}

// drainBelow pops until popBelow(limit) returns nil, checking each event.
func (o *queueOracle) drainBelow(limit Time) {
	o.t.Helper()
	for {
		ev := o.q.popBelow(limit)
		if len(o.pending) == 0 || o.pending[0].At >= limit {
			if ev != nil {
				o.t.Fatalf("after %d pops: popBelow(%d) = (%d, %d), want nil", o.popped, limit, ev.At, ev.seq)
			}
			return
		}
		want := o.pending[0]
		if ev != want {
			if ev == nil {
				o.t.Fatalf("after %d pops: popBelow(%d) = nil, want (%d, %d)", o.popped, limit, want.At, want.seq)
			}
			o.t.Fatalf("after %d pops: popBelow(%d) = (%d, %d), want (%d, %d)", o.popped, limit, ev.At, ev.seq, want.At, want.seq)
		}
		o.pending = o.pending[1:]
		o.popped++
		if o.q.len() != len(o.pending) {
			o.t.Fatalf("len = %d, want %d", o.q.len(), len(o.pending))
		}
	}
}

// TestBucketQueueMatchesSortedOrder is a differential check of the calendar
// queue against a sort oracle, under the engine's access pattern: quanta of
// pushes followed by a drain below the quantum end, with idle skips through
// minAt. The pushes cover same-cycle bursts, pushes for the past (down to 4K
// cycles behind the lower bound), pushes 1-64 laps ahead, and lone outliers
// at 2^18 and 2^26 cycles ahead with nothing else queued.
func TestBucketQueueMatchesSortedOrder(t *testing.T) {
	const quantum = 100
	for seed := uint64(1); seed <= 8; seed++ {
		o := &queueOracle{t: t}
		o.q.initBuckets(quantum)
		lap := Time(len(o.q.ring))
		r := rand.New(rand.NewPCG(seed, 0))
		now := Time(0)
		for round := 0; round < 400; round++ {
			for k := r.IntN(12); k > 0; k-- {
				switch r.IntN(8) {
				case 0: // same-cycle burst
					at := now + Time(r.IntN(3*quantum))
					for b := 1 + r.IntN(20); b > 0; b-- {
						o.push(at)
					}
				case 1: // raised for the past
					o.push(max(0, now-Time(r.IntN(4096))))
				case 2: // 1-64 laps ahead
					o.push(now + Time(1+r.IntN(64))*lap + Time(r.IntN(int(lap))))
				default: // within the current lap
					o.push(now + Time(r.IntN(int(lap))))
				}
			}
			if round%50 == 49 {
				// Drain everything, queue a lone outlier and skip to it.
				o.drainBelow(maxTime)
				o.push(now + Time(1)<<(18+8*(round/50%2)))
				next := o.minAt()
				now = next - next%quantum
			}
			end := now + quantum
			o.drainBelow(end)
			now = end
			if r.IntN(4) == 0 {
				// Idle skip: jump to the next event's quantum.
				if next := o.minAt(); next > now {
					now = next - next%quantum
				}
			}
		}
		o.drainBelow(maxTime)
		if o.q.len() != 0 || o.minAt() != -1 {
			t.Fatalf("seed %d: queue not empty after drain", seed)
		}
		if o.popped != int(o.seq) {
			t.Fatalf("seed %d: popped %d of %d events", seed, o.popped, o.seq)
		}
	}

	// Steady push and pop allocate nothing, in the current lap, behind the
	// lower bound and laps ahead.
	var q bucketQueue
	q.initBuckets(quantum)
	evs := make([]Event, 64)
	var seq uint64
	now := Time(10000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range evs {
			seq++
			evs[i] = Event{At: now + Time(i*37%700) - 50 + Time(i%5)*Time(len(q.ring)), seq: seq}
			q.push(&evs[i])
		}
		for q.popBelow(maxTime) != nil {
		}
		now += quantum
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocated %.1f times per run, want 0", allocs)
	}
}
