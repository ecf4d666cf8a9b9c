package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
)

// mergeTrace runs a fixed workload — eight processors, each staging several
// events inside every quantum — and returns the order in which the staged
// events executed. Processors deliberately finish their slice of the quantum
// in *reverse* ID order (higher IDs are given less host work), so if the
// engine merged staged buffers in completion order rather than processor-ID
// order, the trace would differ between worker counts and between runs.
func mergeTrace(t *testing.T, workers int) []string {
	t.Helper()
	e := NewEngine(100)
	e.Workers = workers
	var trace []string
	const procs, rounds = 8, 6
	for i := 0; i < procs; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			for k := 0; k < rounds; k++ {
				// Skew host-side completion order: low IDs stage last.
				time.Sleep(time.Duration(procs-i) * time.Millisecond)
				k := k
				// Two events at the same virtual time — intra-proc order
				// must also hold (local staging order).
				p.Schedule(p.Clock()+10, func() {
					trace = append(trace, fmt.Sprintf("p%d.r%d.a", i, k))
				})
				p.Schedule(p.Clock()+10, func() {
					trace = append(trace, fmt.Sprintf("p%d.r%d.b", i, k))
				})
				p.Compute(100) // advance into the next quantum
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return trace
}

// TestStagedMergeOrderIndependent is the core determinism contract of
// parallel dispatch: the order staged events are merged into the global heap
// — and therefore the order they execute — depends only on (processor ID,
// local staging order), never on which worker goroutine finished first.
func TestStagedMergeOrderIndependent(t *testing.T) {
	want := mergeTrace(t, 1)
	if len(want) == 0 {
		t.Fatal("serial run produced an empty trace")
	}
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			got := mergeTrace(t, workers)
			if len(got) != len(want) {
				t.Fatalf("workers=%d rep %d: %d events, want %d", workers, rep, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d rep %d: event %d = %q, want %q (merge order leaked goroutine scheduling)",
						workers, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStagerMergesAfterProcs verifies the auxiliary staging context's fixed
// merge position: at the same timestamp, events staged through a Stager (a
// shared object like the barrier) run after every processor-staged event,
// regardless of which processor did the staging or when it ran.
func TestStagerMergesAfterProcs(t *testing.T) {
	run := func(workers int) []string {
		e := NewEngine(100)
		e.Workers = workers
		st := e.NewStager()
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			e.AddProc(func(p *Proc) {
				at := p.Clock() + 10
				if i == 0 {
					// Lowest ID stages through the stager; its event must
					// still land after proc 3's directly-staged event.
					st.Schedule(at, func() { trace = append(trace, "stager") })
				}
				p.Schedule(at, func() { trace = append(trace, fmt.Sprintf("p%d", i)) })
				p.Compute(50)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return trace
	}
	want := []string{"p0", "p1", "p2", "p3", "stager"}
	for _, workers := range []int{1, 4} {
		got := run(workers)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d trace %v, want %v", workers, got, want)
		}
	}
}

// TestProcPhaseGuards locks in the audit mechanism itself: engine-context
// mutations attempted from processor context must panic rather than silently
// race, in serial mode just as in parallel mode.
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
// quantum, the run must surface the lowest-ID failure no matter the worker
// count — matching what serial dispatch order used to produce.
func TestParallelFailureDeterministic(t *testing.T) {
	run := func(workers int) error {
		e := NewEngine(100)
		e.Workers = workers
		for i := 0; i < 4; i++ {
			i := i
			e.AddProc(func(p *Proc) {
				// Higher IDs fail sooner in host time.
				time.Sleep(time.Duration(4-i) * time.Millisecond)
				p.Fail(fmt.Errorf("proc %d failed", i))
			})
		}
		return e.Run()
	}
	want := run(1)
	if want == nil || want.Error() != "proc 0 failed" {
		t.Fatalf("serial failure = %v, want proc 0", want)
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); got == nil || got.Error() != want.Error() {
			t.Fatalf("workers=%d failure = %v, want %v", workers, got, want)
		}
	}
}

// TestWorkersZeroStartsNoPool: the zero value of Workers dispatches every
// quantum on the engine's own goroutine, like Workers=1, however many
// processors a quantum runs; a pool exists only when asked for.
func TestWorkersZeroStartsNoPool(t *testing.T) {
	for _, tc := range []struct{ workers, pool int }{{0, 0}, {1, 0}, {2, 2}} {
		e := NewEngine(100)
		e.Workers = tc.workers
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
		pool := 0
		e.AddQuantumHook(func(Time) { pool = max(pool, len(e.workers)) })
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", tc.workers, err)
		}
		if pool != tc.pool {
			t.Errorf("workers=%d: %d pool workers started, want %d", tc.workers, pool, tc.pool)
		}
	}
}
