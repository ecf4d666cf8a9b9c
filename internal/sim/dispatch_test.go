package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// --- Wake-kind mismatch (the stale-payload fix) ---

// TestBlockWakeValsMismatchPanics pins the mismatch fix: a WakePayload
// after WakeVals used to return nil silently (the typed payload sat unread
// in wakeA/wakeB); now it panics with a message naming both halves of the
// mispaired call.
func TestBlockWakeValsMismatchPanics(t *testing.T) {
	e := NewEngine(100)
	var msg string
	p := e.AddProc(func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
			panic(procHalt{}) // retire cleanly so Run completes
		}()
		park(p, stats.SharedMiss, "mismatch test")
		p.WakePayload()
		t.Error("WakePayload returned despite mismatched wake")
	})
	e.Schedule(150, func() { p.WakeVals(250, 7, 8) })
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(msg, "WakePayload after WakeVals") {
		t.Fatalf("panic %q does not name the WakePayload/WakeVals mismatch", msg)
	}
}

// TestBlockValsWakeMismatchPanics is the mirror direction: WakePayloadVals
// after Wake used to return (0, 0) silently. The wake itself still resumes
// the processor at its time.
func TestBlockValsWakeMismatchPanics(t *testing.T) {
	e := NewEngine(100)
	var msg string
	var woke Time
	p := e.AddProc(func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
			woke = p.Clock()
			panic(procHalt{})
		}()
		park(p, stats.SharedMiss, "mismatch test")
		p.WakePayloadVals()
		t.Error("WakePayloadVals returned despite mismatched wake")
	})
	e.Schedule(150, func() { p.Wake(250) })
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(msg, "WakePayloadVals after Wake") {
		t.Fatalf("panic %q does not name the WakePayloadVals/Wake mismatch", msg)
	}
	if woke != 250 {
		t.Errorf("resumed at %d, want the wake time 250", woke)
	}
}

// TestMatchedBlockWakePairsStillWork guards the fix against false
// positives: correctly paired Wake/WakePayload and WakeVals/WakePayloadVals
// resume at the wake time and deliver payloads and stall charges exactly as
// before.
func TestMatchedBlockWakePairsStillWork(t *testing.T) {
	e := NewEngine(100)
	var woke Time
	var a, b int64
	p := e.AddProc(func(p *Proc) {
		park(p, stats.SharedMiss, "plain wait")
		p.WakePayload()
		woke = p.Clock()
		park(p, stats.SharedMiss, "vals wait")
		a, b = p.WakePayloadVals()
	})
	e.Schedule(150, func() { p.Wake(200) })
	e.Schedule(350, func() { p.WakeVals(400, 41, 42) })
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if woke != 200 || a != 41 || b != 42 {
		t.Fatalf("woke at %d with payload (%d, %d), want 200 and (41, 42)", woke, a, b)
	}
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss); c != 400 {
		t.Errorf("stall charged %d, want 400 (200 + 200)", c)
	}
}

// --- Step (direct-continuation) processors ---

// TestStepProcMatchesCoroutine runs the same workload as a coroutine and as
// a step function and requires identical clocks and charges: a step proc is
// semantically a processor, just dispatched by direct call.
func TestStepProcMatchesCoroutine(t *testing.T) {
	const rounds = 40
	run := func(step bool) (Time, int64) {
		e := NewEngine(100)
		var p *Proc
		if step {
			k := 0
			p = e.AddStepProc(func(p *Proc) StepStatus {
				for p.Clock() < p.Engine().QuantumEnd() {
					if k >= rounds {
						return StepDone
					}
					k++
					p.Compute(70)
				}
				return StepYield
			})
		} else {
			p = e.AddProc(func(p *Proc) {
				for k := 0; k < rounds; k++ {
					p.Compute(70)
					p.Interact()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Clock(), p.Acct.Cycles(stats.PhaseDefault, stats.Comp)
	}
	cClock, cComp := run(false)
	sClock, sComp := run(true)
	if cClock != sClock || cComp != sComp {
		t.Fatalf("step (clock %d, comp %d) != coroutine (clock %d, comp %d)",
			sClock, sComp, cClock, cComp)
	}
}

// TestStepProcBlockWake exercises StepBlock/WakePayloadVals on a step
// processor: the blocked stall is charged on consumption.
func TestStepProcBlockWake(t *testing.T) {
	e := NewEngine(100)
	var a, b int64
	phase := 0
	p := e.AddStepProc(func(p *Proc) StepStatus {
		switch phase {
		case 0:
			phase = 1
			p.Compute(40)
			p.StepBlock(stats.SharedMiss, "step wait")
			return StepYield
		default:
			a, b = p.WakePayloadVals()
			return StepDone
		}
	})
	e.Schedule(150, func() { p.WakeVals(340, 5, 6) })
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if a != 5 || b != 6 {
		t.Fatalf("payload = (%d, %d), want (5, 6)", a, b)
	}
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss); c != 300 {
		t.Errorf("stall charged %d, want 300", c)
	}
	if p.Clock() != 340 {
		t.Errorf("clock = %d, want 340", p.Clock())
	}
}

// TestCoroutineDrivesStepWait is the driver contract every blocking
// shared-memory library call is built on: a coroutine body runs a
// step-style wait (StepBlock, Yield, consume the wake on redispatch) and
// lands in the same engine state as a step processor doing the same — one
// event wakes both, both see the payload and the same charged stall, and no
// goroutine outlives Run.
func TestCoroutineDrivesStepWait(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(100)
	var got [2][2]int64
	// stepWait is the shared non-suspending body: false means "parked".
	stepWait := func(p *Proc) bool {
		if p.WakePending() {
			got[p.ID][0], got[p.ID][1] = p.WakePayloadVals()
			return true
		}
		p.Compute(40)
		p.StepBlock(stats.SharedMiss, "step wait")
		return false
	}
	co := e.AddProc(func(p *Proc) {
		for !stepWait(p) {
			p.Yield()
		}
	})
	st := e.AddStepProc(func(p *Proc) StepStatus {
		if !stepWait(p) {
			return StepYield
		}
		return StepDone
	})
	e.Schedule(150, func() {
		co.WakeVals(340, 5, 6)
		st.WakeVals(340, 5, 6)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []*Proc{co, st} {
		if got[p.ID] != [2]int64{5, 6} {
			t.Errorf("proc %d payload = %v, want [5 6]", p.ID, got[p.ID])
		}
		if c := p.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss); c != 300 {
			t.Errorf("proc %d stall charged %d, want 300", p.ID, c)
		}
		if p.Clock() != 340 {
			t.Errorf("proc %d clock = %d, want 340", p.ID, p.Clock())
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines outlive Run (baseline %d)", n, base)
	}
}

// TestStepProcCannotSuspend pins the step-proc restriction: the suspending
// primitives (Yield, and Interact past the horizon) panic with a message
// naming the alternative.
func TestStepProcCannotSuspend(t *testing.T) {
	e := NewEngine(100)
	var yieldMsg, interactMsg string
	e.AddStepProc(func(p *Proc) StepStatus {
		func() {
			defer func() { yieldMsg = fmt.Sprint(recover()) }()
			p.Yield()
		}()
		func() {
			defer func() { interactMsg = fmt.Sprint(recover()) }()
			p.Compute(200) // past the horizon: Interact would need to yield
			p.Interact()
		}()
		return StepDone
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for what, msg := range map[string]string{"Yield": yieldMsg, "Interact": interactMsg} {
		if !strings.Contains(msg, "StepYield") {
			t.Errorf("%s panic %q does not point at StepYield", what, msg)
		}
	}
}

// TestStepProcFailAborts: Fail from inside a step works like Fail from a
// coroutine — staged, lowest ID wins, every other proc unwound.
func TestStepProcFailAborts(t *testing.T) {
	e := NewEngine(100)
	sentinel := errors.New("step proc gave up")
	e.AddStepProc(func(p *Proc) StepStatus {
		p.Fail(sentinel)
		return StepYield // unreachable
	})
	e.AddProc(func(p *Proc) {
		park(p, stats.LibComp, "waiting forever")
	})
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the step proc's Fail error", err)
	}
}

// TestStepProcStagedMergeDeterministic mixes step and coroutine processors
// and checks that same-time events raised in one quantum run in processor-ID
// order whichever form raised them.
func TestStepProcStagedMergeDeterministic(t *testing.T) {
	e := NewEngine(100)
	var trace []string
	const procs, rounds = 8, 5
	for i := 0; i < procs; i++ {
		i := i
		if i%2 == 0 {
			k := 0
			e.AddStepProc(func(p *Proc) StepStatus {
				if k >= rounds {
					return StepDone
				}
				k++
				kk := k
				p.Schedule(p.Clock()+10, func() {
					trace = append(trace, fmt.Sprintf("p%d.r%d", i, kk))
				})
				p.Compute(100)
				return StepYield
			})
		} else {
			e.AddProc(func(p *Proc) {
				for k := 1; k <= rounds; k++ {
					k := k
					p.Schedule(p.Clock()+10, func() {
						trace = append(trace, fmt.Sprintf("p%d.r%d", i, k))
					})
					p.Compute(100)
					p.Interact()
				}
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for k := 1; k <= rounds; k++ {
		for i := 0; i < procs; i++ {
			want = append(want, fmt.Sprintf("p%d.r%d", i, k))
		}
	}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace\n got %v\nwant %v", trace, want)
	}
}

// TestStepProcUnwindOnAbort: blocked and runnable step procs must unwind
// cleanly when the run aborts.
func TestStepProcUnwindOnAbort(t *testing.T) {
	e := NewEngine(100)
	sentinel := errors.New("external abort")
	phase := 0
	e.AddStepProc(func(p *Proc) StepStatus {
		if phase == 0 {
			phase = 1
			p.StepBlock(stats.LibComp, "never woken")
		}
		return StepYield
	})
	e.AddStepProc(func(p *Proc) StepStatus {
		p.Compute(100)
		return StepYield // spins forever
	})
	e.Schedule(500, func() { e.Abort(sentinel) })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want abort error", err)
	}
}

// --- Goroutine bounds of the dispatcher ---

// TestStepProcsNoGoroutines: a machine of step processors runs with a flat
// goroutine count — the dispatcher owns zero goroutines per step proc, at
// any P.
func TestStepProcsNoGoroutines(t *testing.T) {
	const procs = 1024
	base := runtime.NumGoroutine()
	e := NewEngine(100)
	high := 0
	e.AddQuantumHook(func(Time) {
		if n := runtime.NumGoroutine(); n > high {
			high = n
		}
	})
	for i := 0; i < procs; i++ {
		k := 0
		e.AddStepProc(func(p *Proc) StepStatus {
			if k >= 20 {
				return StepDone
			}
			k++
			p.Compute(100)
			return StepYield
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if high > base+4 {
		t.Errorf("goroutine high-water %d with %d step procs (baseline %d): step procs must not own goroutines",
			high, procs, base)
	}
}

// TestCoroutineGoroutinesBounded: the engine's goroutine overhead is one
// coroutine per coroutine proc — high-water stays within procs + a small
// constant (no per-quantum spawning), and every one is gone once Run
// returns.
func TestCoroutineGoroutinesBounded(t *testing.T) {
	const procs = 256
	base := runtime.NumGoroutine()
	e := NewEngine(100)
	high := 0
	e.AddQuantumHook(func(Time) {
		if n := runtime.NumGoroutine(); n > high {
			high = n
		}
	})
	for i := 0; i < procs; i++ {
		e.AddProc(func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Compute(100)
				p.Interact()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if limit := base + procs + 4; high > limit {
		t.Errorf("goroutine high-water %d > %d (base %d + procs %d + slack): dispatcher is spawning per quantum",
			high, limit, base, procs)
	}
	// Retired procs must not linger.
	if n := settledGoroutines(base); n > base+2 {
		t.Errorf("%d goroutines outlive Run (baseline %d)", n, base)
	}
}

// settledGoroutines returns the goroutine count once it is back at base, or
// what it is stuck at, polling briefly in case an exit is still in flight.
func settledGoroutines(base int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// --- Processor-body panics and the unwind path ---

// runCatching runs the engine and returns Run's error or, if Run panicked,
// the panic value.
func runCatching(e *Engine) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return e.Run(), nil
}

// TestProcPanicSurfacesFromRun: a body that panics at quantum k — coroutine
// or step — comes out of Run on the caller's goroutine as a *ProcPanicError
// naming the lowest-ID panicking processor and carrying the body's stack,
// with every other processor unwound: blocked, runnable, and finished ones
// alike leave no goroutine.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	const procs, k = 8, 3
	for _, step := range []bool{false, true} {
		base := runtime.NumGoroutine()
		e := NewEngine(100)
		for i := 0; i < procs; i++ {
			i := i
			bad := i == 2 || i == 5 // same quantum: the lower ID must win
			switch {
			case bad && step:
				q := 0
				e.AddStepProc(func(p *Proc) StepStatus {
					if q == k {
						panic(fmt.Sprintf("boom %d", i))
					}
					q++
					p.Compute(100)
					return StepYield
				})
			case bad:
				e.AddProc(func(p *Proc) {
					for q := 0; q < k; q++ {
						p.Compute(100)
						p.Interact()
					}
					panic(fmt.Sprintf("boom %d", i))
				})
			case i == 0:
				e.AddProc(func(p *Proc) {}) // finished long before the panic
			case i == 1:
				e.AddProc(func(p *Proc) { park(p, stats.LibComp, "never woken") })
			default:
				e.AddProc(func(p *Proc) {
					for {
						p.Compute(100)
						p.Interact()
					}
				})
			}
		}
		err, r := runCatching(e)
		pe, ok := r.(*ProcPanicError)
		if !ok {
			t.Fatalf("step=%v: Run returned %v / panicked with %v, want *ProcPanicError", step, err, r)
		}
		if pe.Proc != 2 || pe.Value != "boom 2" {
			t.Errorf("step=%v: got proc %d value %v, want proc 2 \"boom 2\"", step, pe.Proc, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "TestProcPanicSurfacesFromRun") {
			t.Errorf("step=%v: Stack is not the body's:\n%s", step, pe.Stack)
		}
		if e.Procs()[2].Clock() != k*100 {
			t.Errorf("step=%v: proc 2 panicked at clock %d, want quantum %d", step, e.Procs()[2].Clock(), k)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("step=%v: %d goroutines after the panic, baseline %d", step, n, base)
		}
	}
}

// TestAbortBeforeFirstDispatchLeavesNoGoroutines: a hook that aborts at the
// very first boundary ends the run with no processor ever dispatched. The
// coroutines exist but were never entered; shutdown must discard them
// without running a line of any body.
func TestAbortBeforeFirstDispatchLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(100)
	sentinel := errors.New("stopped at cycle 0")
	e.AddQuantumHook(func(Time) { e.Abort(sentinel) })
	ran := 0
	for i := 0; i < 64; i++ {
		e.AddProc(func(p *Proc) { ran++ })
	}
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the hook's abort", err)
	}
	if ran != 0 {
		t.Errorf("%d bodies ran after an abort that preceded every dispatch", ran)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the abort, baseline %d", n, base)
	}
}

// TestFailMidRunLeavesNoGoroutines: Proc.Fail in the middle of a run unwinds
// every other processor — each body's deferred calls run.
func TestFailMidRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(100)
	sentinel := errors.New("proc 3 gave up")
	unwound := 0
	for i := 0; i < 64; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			defer func() { unwound++ }()
			for q := 0; ; q++ {
				if i == 3 && q == 5 {
					p.Fail(sentinel)
				}
				if i%2 == 0 && q == 2 {
					park(p, stats.LibComp, "never woken")
				}
				p.Compute(100)
				p.Interact()
			}
		})
	}
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want proc 3's failure", err)
	}
	if unwound != 64 {
		t.Errorf("%d of 64 bodies unwound", unwound)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after Fail, baseline %d", n, base)
	}
}
