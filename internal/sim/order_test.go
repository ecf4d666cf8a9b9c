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
// so a dispatcher that walked the ready list instead of the ID-sorted batch
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
