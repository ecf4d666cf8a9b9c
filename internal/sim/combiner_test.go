package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// sumCombine is the simplest commutative operator: add values, add indexes.
func sumCombine(op uint8, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
	return v1 + v2, i1 + i2
}

// concatCombine is deliberately order-sensitive (decimal digit
// concatenation), so a fold in anything but processor-ID order produces a
// different number — the probe for the ID-order fold guarantee.
func concatCombine(op uint8, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
	return v1*10 + v2, i1*10 + i2
}

// combWait deposits through StepWait, yielding until the episode releases.
func combWait(c *Combiner, p *Proc, cat stats.Category, op uint8, val float64, idx int64) (float64, int64) {
	for {
		if v, i, done := c.StepWait(p, cat, op, val, idx); done {
			return v, i
		}
		p.Yield()
	}
}

// TestCombinerDeliversCombinedResult: every participant gets the combined
// (value, index), the release lands a fixed latency after the last arrival,
// and consecutive episodes recycle cleanly through the freelist.
func TestCombinerDeliversCombinedResult(t *testing.T) {
	const n, latency, episodes = 4, 150, 3
	e := NewEngine(100)
	comb := NewCombiner(e, n, latency, sumCombine)
	clocks := make([]Time, n)
	for i := 0; i < n; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			for ep := 0; ep < episodes; ep++ {
				p.Compute(int64(10 * (i + 1))) // staggered arrivals
				v, idx := combWait(comb, p, stats.BarrierWait, 0, float64(i+1), int64(i))
				if v != 1+2+3+4 {
					t.Errorf("episode %d proc %d: combined value %g, want 10", ep, i, v)
				}
				if idx != 0+1+2+3 {
					t.Errorf("episode %d proc %d: combined index %d, want 6", ep, i, idx)
				}
			}
			clocks[i] = p.Clock()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := comb.Epochs(); got != episodes {
		t.Fatalf("epochs %d, want %d", got, episodes)
	}
	// Every episode: arrivals at +10..+40 past the common start, release at
	// last arrival + latency; all waiters resume at the same cycle.
	for i, c := range clocks {
		if c != clocks[0] {
			t.Errorf("proc %d resumed at %d, proc 0 at %d — release must be simultaneous", i, c, clocks[0])
		}
	}
	want := Time(episodes * (40 + latency))
	if clocks[0] != want {
		t.Errorf("final clock %d, want %d", clocks[0], want)
	}
}

// TestCombinerFoldsInProcessorIDOrder inverts the arrival order (the
// highest-ID processor deposits first) and runs under a worker pool; the
// order-sensitive operator still must see contributions folded 0,1,2,…
func TestCombinerFoldsInProcessorIDOrder(t *testing.T) {
	const n = 4
	for _, workers := range []int{1, 4} {
		e := NewEngine(100)
		e.Workers = workers
		comb := NewCombiner(e, n, 100, concatCombine)
		var bad atomic.Int64
		for i := 0; i < n; i++ {
			i := i
			e.AddProc(func(p *Proc) {
				p.Compute(int64(10 * (n - i))) // proc 3 arrives first, proc 0 last
				v, idx := combWait(comb, p, stats.BarrierWait, 0, float64(i+1), int64(i+1))
				if v != 1234 || idx != 1234 {
					bad.Store(int64(v))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d run: %v", workers, err)
		}
		if b := bad.Load(); b != 0 {
			t.Errorf("workers=%d: fold produced %d, want 1234 (processor-ID order)", workers, b)
		}
	}
}

// TestCombinerOpMismatchPanics: an episode's participants must agree on the
// operator; a straggler passing a different op is a program bug and fails
// loudly. The straggler retries with the right op so the episode (and the
// engine) still completes.
func TestCombinerOpMismatchPanics(t *testing.T) {
	e := NewEngine(100)
	e.Workers = 1 // serial dispatch: proc 0 deterministically arrives first
	comb := NewCombiner(e, 2, 100, sumCombine)
	e.AddProc(func(p *Proc) {
		combWait(comb, p, stats.BarrierWait, 7, 1, 0)
	})
	var msg string
	e.AddProc(func(p *Proc) {
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			combWait(comb, p, stats.BarrierWait, 8, 2, 0)
			t.Error("mismatched op did not panic")
		}()
		combWait(comb, p, stats.BarrierWait, 7, 2, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(msg, "op 8") || !strings.Contains(msg, "op 7") {
		t.Errorf("panic message %q should name both operators", msg)
	}
}
