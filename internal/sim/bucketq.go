package sim

// maxTime is an upper bound on event times, used to drain unconditionally.
const maxTime = Time(1)<<62 - 1

// bucketQueue is the engine's pending-event structure: a calendar queue
// (Brown, CACM 31(10), 1988) tuned for the conservative-quantum access
// pattern, where almost every event lands within a few quanta of now and the
// event phase drains the whole window in (At, seq) order anyway. Every event
// goes to bucket At&mask, however far it lies from now: events a "year" (one
// lap of the ring) or more apart share a "day" bucket, and each bucket is
// kept sorted by (At, seq). Sequence numbers rise with every push, so the
// common push is an O(1) append at the bucket's tail; only an event raised
// for the past, or one landing behind an event a later lap away, walks the
// bucket to its insert point. As a bucket's head is its earliest event, the
// earliest pending event is the first head, scanning up from a lower bound,
// whose At equals the cycle scanned.
type bucketQueue struct {
	ring []evBucket
	mask int  // len(ring)-1; len is a power of two
	n    int  // events currently queued
	next Time // lower bound on the earliest queued event's time
}

// evBucket is one day's events in (At, seq) order, linked intrusively
// through Event.qnext. Events are pooled by the engine, so the list borrows
// storage the events already own — a bucket can never allocate, no matter
// how many events pile onto one cycle (quantum-boundary merges put O(P)
// events on the same At).
type evBucket struct {
	head, tail *Event
}

// initBuckets sizes the ring to cover several quanta: wide enough that
// cross-processor latencies (network hops, directory transactions) land in
// the current lap, small enough to stay cache-resident.
func (q *bucketQueue) initBuckets(quantum Time) {
	w := 256
	for Time(w) < 4*quantum {
		w <<= 1
	}
	q.ring = make([]evBucket, w)
	q.mask = w - 1
}

func (q *bucketQueue) len() int { return q.n }

// evBefore is the queue's order: (At, seq).
func evBefore(a, b *Event) bool {
	return a.At < b.At || a.At == b.At && a.seq < b.seq
}

// push enqueues ev into bucket At&mask at its (At, seq) position.
func (q *bucketQueue) push(ev *Event) {
	b := &q.ring[int(ev.At)&q.mask]
	switch {
	case b.tail == nil:
		ev.qnext = nil
		b.head, b.tail = ev, ev
	case evBefore(b.tail, ev):
		ev.qnext = nil
		b.tail.qnext = ev
		b.tail = ev
	case evBefore(ev, b.head):
		ev.qnext = b.head
		b.head = ev
	default: // ev sorts before the tail, so the walk stops short of it
		prev := b.head
		for !evBefore(ev, prev.qnext) {
			prev = prev.qnext
		}
		ev.qnext = prev.qnext
		prev.qnext = ev
	}
	// Into an empty queue the event itself is the bound, however far it
	// lies from the old one.
	if q.n == 0 || ev.At < q.next {
		q.next = ev.At
	}
	q.n++
}

// minAt returns the earliest pending event time, or -1 if no events are
// pending.
func (q *bucketQueue) minAt() Time { return q.earliest(maxTime) }

// earliest returns the earliest pending event time if it is below limit,
// or -1. It scans up from the cached lower bound for a bucket whose head is
// due at the cycle scanned, and stops at limit, which becomes the bound — so
// the event phase crosses each cycle once and only a push for the past
// lowers the bound. A lap without a match means every event is at least a
// lap ahead of the bound; the scan has then seen every bucket head, and the
// earliest is the answer.
func (q *bucketQueue) earliest(limit Time) Time {
	if q.n == 0 || q.next >= limit {
		return -1
	}
	lap := q.next + Time(len(q.ring))
	end := min(limit, lap)
	lo := maxTime
	for t := q.next; t < end; t++ {
		if h := q.ring[int(t)&q.mask].head; h != nil {
			if h.At == t {
				q.next = t
				return t
			}
			lo = min(lo, h.At)
		}
	}
	if end < lap {
		q.next = limit
		return -1
	}
	q.next = lo
	if lo >= limit {
		return -1
	}
	return lo
}

// popBelow removes and returns the earliest event with At < limit, or nil.
func (q *bucketQueue) popBelow(limit Time) *Event {
	at := q.earliest(limit)
	if at < 0 {
		return nil
	}
	b := &q.ring[int(at)&q.mask]
	ev := b.head
	b.head = ev.qnext
	if b.head == nil {
		b.tail = nil
	}
	ev.qnext = nil
	q.n--
	return ev
}

// each calls fn for every pending event, in no particular order. Callers
// that need an order (the state encoder) sort by (At, seq) themselves.
func (q *bucketQueue) each(fn func(*Event)) {
	for i := range q.ring {
		for ev := q.ring[i].head; ev != nil; ev = ev.qnext {
			fn(ev)
		}
	}
}
