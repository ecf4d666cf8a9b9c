package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/snapshot"
)

// RunStopError is the planned-stop report produced when a run is halted at
// a requested virtual time (wwtsim -run-until): not a failure, but a clean
// early exit whose partial statistics cover the execution up to the stop.
// Bisecting a failing run to the cycle of first divergence works by
// re-running with successively tighter stop cycles.
type RunStopError struct {
	// At is the quantum boundary the run stopped on: the first one at or
	// after the requested cycle.
	At Time
	// Requested is the cycle the caller asked to stop at.
	Requested Time
}

func (e *RunStopError) Error() string {
	return fmt.Sprintf("sim: run stopped at cycle %d (requested -run-until %d)", e.At, e.Requested)
}

// StopAt arms a planned stop: at the first quantum boundary at or after
// cycle, the engine aborts with a *RunStopError. The stop is deterministic —
// a replayed run stops at the identical boundary.
func (e *Engine) StopAt(cycle Time) {
	e.AddQuantumHook(func(now Time) {
		if now >= cycle {
			e.Abort(&RunStopError{At: now, Requested: cycle})
		}
	})
}

// EncodeState contributes the engine's serializable state to a checkpoint
// image: the clock, the event-queue shape (timestamps and sequence numbers
// — handler closures cannot be serialized, but their schedule pins the
// replayed engine to the same decisions), every processor's scheduling
// state, and each watchdog's progress mark. Must be called from a quantum
// hook, when no processor is executing.
func (e *Engine) EncodeState(enc *snapshot.Enc) {
	enc.Section("engine", func(enc *snapshot.Enc) {
		enc.I64(e.now)
		enc.I64(e.qEnd)
		enc.U64(e.seq)
		enc.I64(int64(e.finished))

		// Pending events, sorted by (At, seq) — the heap's internal layout
		// is insertion-history-dependent, its ordered content is not.
		evs := make([]Event, 0, e.events.len())
		e.events.each(func(ev *Event) {
			evs = append(evs, Event{At: ev.At, seq: ev.seq})
		})
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].At != evs[j].At {
				return evs[i].At < evs[j].At
			}
			return evs[i].seq < evs[j].seq
		})
		enc.U32(uint32(len(evs)))
		for _, ev := range evs {
			enc.I64(ev.At)
			enc.U64(ev.seq)
		}

		enc.U32(uint32(len(e.procs)))
		for _, p := range e.procs {
			enc.I64(p.clock)
			enc.Bool(p.done)
			enc.Bool(p.blocked)
			enc.Str(p.blockReason)
			enc.I64(p.blockStart)
			enc.U32(uint32(len(p.modes)))
		}

		enc.U32(uint32(len(e.watchdogs)))
		for _, w := range e.watchdogs {
			enc.Str(w.Source)
			enc.I64(w.last)
		}
	})
}

// EncodeState contributes the barrier's image: the waiters present (by
// processor ID, sorted — arrival order is not part of the model), the
// spin-polling count, the latest
// arrival time, and the completed-episode counter; then, only while a
// combining episode is filling, its operator and the waiters' deposits in
// the same order, so a run that never combines keeps the plain image.
func (b *Barrier) EncodeState(enc *snapshot.Enc) {
	enc.Section("barrier", func(enc *snapshot.Enc) {
		ids := make([]int, len(b.waiting))
		for i, p := range b.waiting {
			ids[i] = p.ID
		}
		sort.Ints(ids)
		enc.U32(uint32(len(ids)))
		for _, id := range ids {
			enc.I64(int64(id))
		}
		enc.I64(int64(b.polling))
		enc.I64(int64(b.maxArr))
		enc.I64(b.epoch)
		enc.I64(int64(b.release))
		if b.combining {
			enc.I64(int64(b.op))
			for _, id := range ids {
				enc.U64(math.Float64bits(b.contrib[id].val))
				enc.I64(b.contrib[id].idx)
			}
		}
	})
}
