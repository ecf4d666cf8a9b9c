package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestStagedMergeOrderIndependent pins the sequence numbers the dispatcher
// assigns: events raised in one quantum are pushed as they are raised, so
// same-time events run in (processor ID, raise order) — whatever order the
// processors became runnable in — and events staged through a Stager run
// after all of them. Each round wakes the processors in reverse ID order,
// so a dispatcher that ran processors in wake order instead of ID order
// would reverse the trace.
func TestStagedMergeOrderIndependent(t *testing.T) {
	const procs, rounds = 6, 3
	e := NewEngine(100)
	st := e.NewStager()
	var trace []string
	ps := make([]*Proc, procs)
	for i := range procs {
		ps[i] = e.AddProc(func(p *Proc) {
			for k := range rounds {
				park(p, stats.BarrierWait, "round")
				p.WakePayload()
				at := p.Clock() + 10
				if i == 0 {
					st.Schedule(at, func() { trace = append(trace, fmt.Sprintf("stager.r%d", k)) })
				}
				p.Schedule(at, func() { trace = append(trace, fmt.Sprintf("p%d.r%d.a", i, k)) })
				p.Schedule(at, func() { trace = append(trace, fmt.Sprintf("p%d.r%d.b", i, k)) })
			}
		})
	}
	var want []string
	for k := range rounds {
		wake := Time(k*1000 + 500)
		e.Schedule(wake, func() {
			for i := procs - 1; i >= 0; i-- {
				ps[i].Wake(wake)
			}
		})
		for i := range procs {
			want = append(want, fmt.Sprintf("p%d.r%d.a", i, k), fmt.Sprintf("p%d.r%d.b", i, k))
		}
		want = append(want, fmt.Sprintf("stager.r%d", k))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace\n got %v\nwant %v", trace, want)
	}
}

// TestStagerMergesAfterProcs verifies the auxiliary staging context's fixed
// position: at the same timestamp, events staged through a Stager (a shared
// object like the barrier) run after every processor-raised event,
// regardless of which processor did the staging.
func TestStagerMergesAfterProcs(t *testing.T) {
	e := NewEngine(100)
	st := e.NewStager()
	var trace []string
	for i := 0; i < 4; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			at := p.Clock() + 10
			if i == 0 {
				// Lowest ID stages through the stager; its event must
				// still land after proc 3's directly-raised event.
				st.Schedule(at, func() { trace = append(trace, "stager") })
			}
			p.Schedule(at, func() { trace = append(trace, fmt.Sprintf("p%d", i)) })
			p.Compute(50)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"p0", "p1", "p2", "p3", "stager"}; fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// TestProcPhaseGuards locks in the lookahead rule's enforcement:
// engine-context mutations attempted from processor context must panic
// rather than take effect inside the quantum.
func TestProcPhaseGuards(t *testing.T) {
	t.Run("engine-schedule", func(t *testing.T) {
		e := NewEngine(100)
		var recovered any
		e.AddProc(func(p *Proc) {
			defer func() {
				recovered = recover()
				panic(procHalt{}) // halt cleanly so Run can unwind
			}()
			e.Schedule(p.Clock()+1, func() {})
		})
		_ = e.Run()
		if recovered == nil {
			t.Fatal("Engine.Schedule from processor context did not panic")
		}
	})
	t.Run("wake", func(t *testing.T) {
		e := NewEngine(100)
		var recovered any
		var victim *Proc
		victim = e.AddProc(func(p *Proc) {
			park(p, stats.BarrierWait, "guard test")
		})
		e.AddProc(func(p *Proc) {
			p.Compute(10) // let the victim block first (same quantum is fine: it blocks at dispatch)
			defer func() {
				recovered = recover()
				// Abort the run: the victim stays blocked forever, so a
				// clean halt would trip the deadlock detector instead.
				p.Fail(fmt.Errorf("guard fired"))
			}()
			victim.Wake(p.Clock())
		})
		_ = e.Run()
		if recovered == nil {
			t.Fatal("Proc.Wake from processor context did not panic")
		}
	})
}

// TestParallelFailureDeterministic: when several processors fail in the same
// quantum, the run surfaces the lowest-ID failure.
func TestParallelFailureDeterministic(t *testing.T) {
	e := NewEngine(100)
	for i := 0; i < 4; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			p.Compute(int64(40 - 10*i)) // higher IDs fail sooner in virtual time
			p.Fail(fmt.Errorf("proc %d failed", i))
		})
	}
	if err := e.Run(); err == nil || err.Error() != "proc 0 failed" {
		t.Fatalf("failure = %v, want proc 0", err)
	}
}

// TestWorkersZeroStartsNoPool: Run starts no goroutine for step procs,
// whatever the deprecated Workers field holds — every quantum dispatches on
// the engine's own goroutine.
func TestWorkersZeroStartsNoPool(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		base := runtime.NumGoroutine()
		e := NewEngine(100)
		e.Workers = workers
		for i := 0; i < 64; i++ {
			steps := 0
			e.AddStepProc(func(p *Proc) StepStatus {
				if steps++; steps > 10 {
					return StepDone
				}
				p.Compute(100)
				return StepYield
			})
		}
		high := 0
		e.AddQuantumHook(func(Time) { high = max(high, runtime.NumGoroutine()) })
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if high > base {
			t.Errorf("workers=%d: goroutine high-water %d, baseline %d", workers, high, base)
		}
	}
}

// TestDispatchFollowsClockAndID pins the dispatch rule on a seeded mix of
// step processors that compute 0-1,000 cycles at a time and sometimes
// block until an event 1-500 cycles later wakes them (often at a time the
// engine has already passed). Within a quantum the dispatched IDs strictly
// increase; every dispatch starts with the clock below the quantum end; and
// a processor that yields unblocked, or is woken, next runs in the first
// quantum at or after the current one that contains its clock. The hash of
// the whole (quantum, ID) trace pins the order against any dispatcher that
// keeps these rules but visits processors differently.
func TestDispatchFollowsClockAndID(t *testing.T) {
	const (
		procs   = 64
		q       = 100
		horizon = 200_000 // about 2,000 quanta
		// wantHash is the FNV-1a hash of the (quantum start, ID) trace.
		wantHash = 0x56b19613011a9240
	)
	e := NewEngine(q)
	expect := make([]Time, procs) // start of the quantum each proc must next run in
	hash := uint64(14695981039346656037)
	mix := func(v int64) {
		for range 8 {
			hash = (hash ^ uint64(v&0xff)) * 1099511628211
			v >>= 8
		}
	}
	dispatches, wakes, lateWakes, lastQ, lastID := 0, 0, 0, Time(-1), -1
	for i := range procs {
		rng := NewRNG(uint64(i + 1))
		e.AddStepProc(func(p *Proc) StepStatus {
			now, end := e.Now(), e.QuantumEnd()
			if now == lastQ && p.ID <= lastID {
				t.Fatalf("quantum %d: proc %d dispatched after proc %d", now, p.ID, lastID)
			}
			if p.Clock() >= end {
				t.Fatalf("quantum %d: proc %d dispatched at clock %d, quantum end %d", now, p.ID, p.Clock(), end)
			}
			if now != expect[p.ID] {
				t.Fatalf("proc %d ran in quantum %d, want %d", p.ID, now, expect[p.ID])
			}
			lastQ, lastID = now, p.ID
			dispatches++
			mix(now)
			mix(int64(p.ID))
			if p.WakePending() {
				p.WakePayload()
			}
			for p.Clock() < end {
				if p.Clock() >= horizon {
					return StepDone
				}
				p.Compute(int64(rng.Intn(1001)))
				if rng.Intn(8) == 0 {
					at := p.Clock() + 1 + int64(rng.Intn(500))
					p.StepBlock(stats.SharedMiss, "dispatch test")
					p.Schedule(at, func() {
						wakes++
						if at < e.Now() {
							lateWakes++
						}
						p.Wake(at)
						c := p.Clock()
						expect[p.ID] = max(e.Now(), c-c%q)
					})
					return StepYield
				}
				if rng.Intn(16) == 0 {
					break // yield early, clock still inside the quantum
				}
			}
			c := p.Clock()
			expect[p.ID] = max(end, c-c%q)
			return StepYield
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lastQ < horizon-q || lateWakes == 0 || lateWakes == wakes {
		t.Fatalf("trace too narrow: last quantum %d, %d wakes, %d of them late", lastQ, wakes, lateWakes)
	}
	if hash != wantHash {
		t.Errorf("trace hash %#x over %d dispatches, %d wakes; want %#x", hash, dispatches, wakes, uint64(wantHash))
	}
}
