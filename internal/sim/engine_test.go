package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// park suspends a coroutine body until a wake arrives, the way every
// blocking library call does: StepBlock, then Yield. The caller consumes
// the wake with WakePayload or WakePayloadVals.
func park(p *Proc, cat stats.Category, reason string) {
	p.StepBlock(cat, reason)
	p.Yield()
}

func TestComputeAdvancesClockAndCharges(t *testing.T) {
	e := NewEngine(100)
	var got Time
	p := e.AddProc(func(p *Proc) {
		p.Compute(250)
		got = p.Clock()
	})
	e.Run()
	if got != 250 {
		t.Errorf("clock = %d, want 250", got)
	}
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.Comp); c != 250 {
		t.Errorf("computation cycles = %d, want 250", c)
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := NewEngine(100)
	var order []int
	e.AddProc(func(p *Proc) { p.Compute(1000) })
	e.Schedule(500, func() { order = append(order, 2) })
	e.Schedule(50, func() { order = append(order, 1) })
	e.Schedule(999, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
}

func TestEventTieBrokenBySchedulingOrder(t *testing.T) {
	e := NewEngine(100)
	var order []int
	e.AddProc(func(p *Proc) { p.Compute(200) })
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(70, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestBlockWakeChargesStall(t *testing.T) {
	e := NewEngine(100)
	var woke Time
	p := e.AddProc(func(p *Proc) {
		p.Compute(40)
		park(p, stats.SharedMiss, "test wait")
		p.WakePayload()
		woke = p.Clock()
	})
	// Wakes always arrive at least a quantum after the block in practice
	// (they are replies to requests issued before blocking).
	e.Schedule(150, func() { p.Wake(340) })
	e.Run()
	if woke != 340 {
		t.Errorf("woke at %d, want 340", woke)
	}
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.SharedMiss); c != 300 {
		t.Errorf("stall charged %d, want 300", c)
	}
}

func TestInteractBoundsRunAhead(t *testing.T) {
	// A processor that computed far ahead must not observe an event that
	// logically happens later than another processor's earlier send.
	e := NewEngine(100)
	var sawAt Time
	flag := false
	e.AddProc(func(p *Proc) {
		p.Compute(5000) // run way ahead
		p.Interact()
		sawAt = p.Clock()
	})
	e.AddProc(func(p *Proc) {
		p.Compute(10)
		flag = true
	})
	e.Run()
	if !flag {
		t.Fatal("second proc never ran")
	}
	if sawAt != 5000 {
		t.Errorf("interact resumed at %d, want 5000", sawAt)
	}
}

func TestSpinUntilSeesEventUpdates(t *testing.T) {
	e := NewEngine(100)
	ready := false
	var doneAt Time
	p := e.AddProc(func(p *Proc) {
		// Spin at quantum granularity: nothing observable changes until
		// the next quantum, so one charge covers the whole window.
		p.Interact()
		for !ready {
			p.ChargeStall(stats.LibComp, e.QuantumEnd()-p.Clock())
			p.Yield()
		}
		doneAt = p.Clock()
	})
	e.Schedule(730, func() { ready = true })
	e.Run()
	// Observation precision is one quantum: the event lands in the event
	// phase of its quantum, so the spin may see it up to Quantum early.
	if doneAt < 630 || doneAt > 830 {
		t.Errorf("spin finished at %d, want within a quantum of 730", doneAt)
	}
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.LibComp); c != doneAt {
		t.Errorf("spin charged %d, want %d", c, doneAt)
	}
}

func TestBarrierReleasesAtMaxArrivalPlusLatency(t *testing.T) {
	e := NewEngine(100)
	b := NewBarrier(e, 3, 100)
	exits := make([]Time, 3)
	arrive := []int64{50, 700, 320}
	for i := 0; i < 3; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			p.Compute(arrive[i])
			b.Wait(p, stats.BarrierWait)
			exits[i] = p.Clock()
		})
	}
	e.Run()
	for i, x := range exits {
		if x != 800 {
			t.Errorf("proc %d exits at %d, want 800", i, x)
		}
	}
	if b.Epochs() != 1 {
		t.Errorf("epochs = %d, want 1", b.Epochs())
	}
}

func TestBarrierRepeatedEpochs(t *testing.T) {
	e := NewEngine(100)
	const procs, iters = 4, 7
	b := NewBarrier(e, procs, 100)
	for i := 0; i < procs; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			for k := 0; k < iters; k++ {
				p.Compute(int64(10 * (i + 1)))
				b.Wait(p, stats.BarrierWait)
			}
		})
	}
	e.Run()
	if b.Epochs() != iters {
		t.Errorf("epochs = %d, want %d", b.Epochs(), iters)
	}
	// All procs end at the same time after the final barrier.
	var end Time = -1
	for _, p := range e.Procs() {
		if end < 0 {
			end = p.Clock()
		} else if p.Clock() != end {
			t.Errorf("proc %d ends at %d, others at %d", p.ID, p.Clock(), end)
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Fatalf("panic %q does not mention deadlock", r)
		}
	}()
	e := NewEngine(100)
	e.AddProc(func(p *Proc) {
		park(p, stats.SharedMiss, "never woken")
	})
	e.Run()
}

func TestPushPopMode(t *testing.T) {
	e := NewEngine(100)
	p := e.AddProc(func(p *Proc) {
		p.Compute(10) // Comp
		p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
		p.Compute(20) // LibComp
		if c, _ := p.MissCategory(); c != stats.LibMiss {
			t.Errorf("miss category in lib mode = %v", c)
		}
		p.PushModeFull(stats.SyncComp, stats.SyncMiss, stats.CntPrivateMisses,
			stats.LockWait, stats.LockWait)
		p.Compute(5) // SyncComp
		if p.SharedMissCategory() != stats.LockWait {
			t.Errorf("shared category = %v, want LockWait", p.SharedMissCategory())
		}
		p.PopMode()
		p.PopMode()
		p.Compute(40) // Comp again
	})
	e.Run()
	check := func(cat stats.Category, want int64) {
		if c := p.Acct.Cycles(stats.PhaseDefault, cat); c != want {
			t.Errorf("%v = %d, want %d", cat, c, want)
		}
	}
	check(stats.Comp, 50)
	check(stats.LibComp, 20)
	check(stats.SyncComp, 5)
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(100)
		b := NewBarrier(e, 4, 100)
		for i := 0; i < 4; i++ {
			// One RNG stream per processor: processors within a quantum may
			// run concurrently, so shared draw state is off-limits.
			rng := NewRNG(42 + uint64(i))
			e.AddProc(func(p *Proc) {
				for k := 0; k < 50; k++ {
					p.Compute(int64(rng.Intn(500)))
					b.Wait(p, stats.BarrierWait)
				}
			})
		}
		e.Run()
		var out []int64
		for _, p := range e.Procs() {
			out = append(out, p.Clock(), p.Acct.Cycles(stats.PhaseDefault, stats.Comp))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestIdleQuantumSkipping(t *testing.T) {
	// A long pure wait should not require crawling quanta: verify a distant
	// event still fires and wakes the proc at the right time.
	e := NewEngine(100)
	var woke Time
	p := e.AddProc(func(p *Proc) {
		park(p, stats.BarrierWait, "long wait")
		p.WakePayload()
		woke = p.Clock()
	})
	e.Schedule(1_000_000, func() { p.Wake(1_000_000) })
	e.Run()
	if woke != 1_000_000 {
		t.Errorf("woke at %d, want 1000000", woke)
	}
}

func TestRNGDeterministicAndBounded(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		va, vb := a.Uint64(), b.Uint64()
		if va != vb {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestWaitUntilNoBackwardTime(t *testing.T) {
	e := NewEngine(100)
	p := e.AddProc(func(p *Proc) {
		p.Compute(500)
		p.WaitUntil(300, stats.BarrierWait) // in the past: no-op
		if p.Clock() != 500 {
			t.Errorf("clock moved backward to %d", p.Clock())
		}
		p.WaitUntil(800, stats.BarrierWait)
		if p.Clock() != 800 {
			t.Errorf("clock = %d, want 800", p.Clock())
		}
	})
	e.Run()
	if c := p.Acct.Cycles(stats.PhaseDefault, stats.BarrierWait); c != 300 {
		t.Errorf("wait charged %d, want 300", c)
	}
}

func TestFailAbortsRunWithStructuredError(t *testing.T) {
	e := NewEngine(100)
	sentinel := errors.New("transport starved")
	var after bool
	e.AddProc(func(p *Proc) {
		p.Compute(50)
		p.Fail(sentinel)
		after = true // Fail must not return
	})
	// A second, parked processor must be unwound, not leaked or
	// reported as a deadlock.
	e.AddProc(func(p *Proc) {
		park(p, stats.LibComp, "waiting forever")
	})
	err := e.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the Fail error", err)
	}
	if after {
		t.Error("Fail returned to the processor body")
	}
	if e.Aborted() == nil {
		t.Error("Aborted() should report the error")
	}
}

func TestAbortFirstErrorWins(t *testing.T) {
	e := NewEngine(100)
	first := errors.New("first")
	second := errors.New("second")
	e.AddProc(func(p *Proc) { p.Fail(first) })
	e.AddProc(func(p *Proc) {
		p.Compute(500)
		p.Interact()
		p.Fail(second)
	})
	if err := e.Run(); !errors.Is(err, first) {
		t.Errorf("Run returned %v, want the first abort", err)
	}
}

func TestAbortFromEventHandlerUnwindsProcs(t *testing.T) {
	e := NewEngine(100)
	sentinel := errors.New("watchdog fired")
	e.AddProc(func(p *Proc) {
		park(p, stats.LibComp, "awaiting a packet that was dropped")
	})
	e.Schedule(1000, func() { e.Abort(sentinel) })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Errorf("Run returned %v, want the watchdog error", err)
	}
}

func TestRunReturnsNilOnCleanCompletion(t *testing.T) {
	e := NewEngine(100)
	e.AddProc(func(p *Proc) { p.Compute(10) })
	if err := e.Run(); err != nil {
		t.Errorf("Run returned %v, want nil", err)
	}
}

func TestDiagnosticAppearsInDeadlockReport(t *testing.T) {
	e := NewEngine(100)
	e.AddProc(func(p *Proc) {
		p.SetDiagnostic(func() string { return "transport: [->1 unacked=3 oldest=7]" })
		park(p, stats.LibComp, "barrier")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a deadlock panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "oldest=7") {
			t.Errorf("deadlock report missing library diagnostic:\n%s", msg)
		}
		if !strings.Contains(msg, "barrier") {
			t.Errorf("deadlock report missing block reason:\n%s", msg)
		}
	}()
	e.Run()
}

func TestBarrierWaitServicePolls(t *testing.T) {
	e := NewEngine(100)
	b := NewBarrier(e, 2, 100)
	serviced := 0
	var releaseEarly, releaseLate Time
	e.AddProc(func(p *Proc) {
		var sw ServiceWait
		for !b.StepWaitService(p, &sw, stats.BarrierWait, func() bool { serviced++; return true }) {
			p.Yield()
		}
		releaseEarly = p.Clock()
	})
	e.AddProc(func(p *Proc) {
		p.Compute(1000)
		b.Wait(p, stats.BarrierWait)
		releaseLate = p.Clock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if serviced == 0 {
		t.Error("service callback never ran while waiting")
	}
	if releaseEarly != releaseLate {
		t.Errorf("release times diverge: %d vs %d", releaseEarly, releaseLate)
	}
	if releaseEarly != 1100 {
		t.Errorf("released at %d, want 1100 (last arrival 1000 + latency 100)", releaseEarly)
	}
	if b.Epochs() != 1 {
		t.Errorf("epochs = %d, want 1", b.Epochs())
	}
}
